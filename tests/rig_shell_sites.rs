//! Grep-style lint: one rig shell and one translator trait. Every
//! environment is a `Machine`, and the generic `MachineRig<M>` carries
//! the only `impl Rig` for a machine-owning type; every design
//! implements the one `Translator<M>` per machine it runs on. A second
//! `impl … Rig for` a non-wrapper type in `crates/sim/src`, or a
//! per-environment translator trait (`NativeTranslator` and the like),
//! fails this test.
//!
//! A wrapper is an impl over another rig: generic over `R: Rig`, or
//! over `dyn Rig` (the `Box<dyn Rig>` forwarder).

use std::path::{Path, PathBuf};

/// Every `.rs` file under `crates/sim/src`.
fn sim_sources(root: &Path) -> Vec<PathBuf> {
    let mut out = Vec::new();
    let mut stack = vec![root.join("crates/sim/src")];
    while let Some(dir) = stack.pop() {
        let Ok(entries) = std::fs::read_dir(&dir) else {
            continue;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                stack.push(path);
            } else if path.extension().is_some_and(|e| e == "rs") {
                out.push(path);
            }
        }
    }
    out
}

/// `(file:line, code)` for every non-comment line of the sim sources.
fn code_lines(root: &Path) -> Vec<(String, String)> {
    let sources = sim_sources(root);
    assert!(
        sources.len() > 15,
        "source walk looks broken: only {} files",
        sources.len()
    );
    let mut out = Vec::new();
    for path in &sources {
        let Ok(source) = std::fs::read_to_string(path) else {
            continue;
        };
        for (i, line) in source.lines().enumerate() {
            let code = line.trim();
            if !code.starts_with("//") {
                out.push((format!("{}:{}", path.display(), i + 1), code.to_string()));
            }
        }
    }
    out
}

/// Whether an `impl … Rig for …` header wraps another rig.
fn is_wrapper(header: &str) -> bool {
    header.contains("dyn Rig") || header.contains(": Rig>") || header.contains(": Rig,")
}

#[test]
fn one_rig_impl_for_a_machine_owning_type() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let shells: Vec<String> = code_lines(root)
        .into_iter()
        .filter(|(_, code)| code.starts_with("impl") && code.contains(" Rig for "))
        .filter(|(_, code)| !is_wrapper(code))
        .map(|(at, code)| format!("{at}: {code}"))
        .collect();
    assert!(
        shells.len() == 1 && shells[0].contains("Rig for MachineRig<"),
        "the one non-wrapper `impl Rig` must be the generic `MachineRig<M>` shell; \
         a new environment is a `Machine` impl, not a new rig (DESIGN.md §11):\n{}",
        shells.join("\n")
    );
}

#[test]
fn one_translator_trait() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let traits: Vec<String> = code_lines(root)
        .into_iter()
        .filter(|(_, code)| {
            let decl = code.strip_prefix("pub ").unwrap_or(code);
            let decl = decl.strip_prefix("pub(crate) ").unwrap_or(decl);
            decl.strip_prefix("trait ").is_some_and(|rest| {
                let name: String = rest
                    .chars()
                    .take_while(|c| c.is_alphanumeric() || *c == '_')
                    .collect();
                name.ends_with("Translator")
            })
        })
        .map(|(at, code)| format!("{at}: {code}"))
        .collect();
    assert!(
        traits.len() == 1 && traits[0].contains("trait Translator<M: Machine>"),
        "designs implement the one `Translator<M: Machine>`; a per-environment \
         translator trait is a new copy of it (DESIGN.md §11):\n{}",
        traits.join("\n")
    );
}
