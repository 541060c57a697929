//! Registry hygiene that needs a running binary: name uniqueness and
//! the find() round trip. Registry *exhaustiveness* — every module in
//! `tools/` has an entry and every entry points at a real module — is
//! checked statically by abw-lint's D9 rule (`abw-lint --list-rules`),
//! which replaced the filesystem scan that used to live here.

use std::collections::BTreeSet;

use abwe::core::tools::registry::{self, ToolConfig};
use abwe::core::tools::Action;

#[test]
fn names_are_unique_and_kebab_case() {
    let mut seen = BTreeSet::new();
    for entry in registry::all() {
        assert!(
            seen.insert(entry.name),
            "duplicate registry name `{}`",
            entry.name
        );
        assert!(
            !entry.name.is_empty()
                && entry
                    .name
                    .chars()
                    .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '-')
                && !entry.name.starts_with('-')
                && !entry.name.ends_with('-'),
            "registry name `{}` is not kebab-case",
            entry.name
        );
        assert!(!entry.summary.is_empty(), "`{}` has no summary", entry.name);
        assert!(
            !entry.paper_section.is_empty(),
            "`{}` has no paper section",
            entry.name
        );
    }
}

#[test]
fn find_round_trips_every_name_into_a_working_estimator() {
    for entry in registry::all() {
        let found = registry::find(entry.name)
            .unwrap_or_else(|| panic!("find(`{}`) returned None", entry.name));
        assert!(std::ptr::eq(found, entry));
        let mut tool = found.build(&ToolConfig::quick());
        assert!(
            matches!(tool.next(None), Action::Send(_)),
            "`{}` must start by probing",
            entry.name
        );
    }
}
