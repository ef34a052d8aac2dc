//! Operator packages (BASE, IE, WA, DC) and the operator registry.
//!
//! "Currently, the system ships more than 60 different operators organized
//! in four packages": general purpose (BASE), information extraction (IE),
//! web analytics (WA), and data cleansing (DC). This module provides the
//! same organization: each package registers named operator factories into
//! an [`OperatorRegistry`], which the Meteor front end and the pipeline
//! builders resolve operators from. Every constructor also stamps its
//! operator with a wire form, which [`wire`] turns back into the same
//! constructor call inside a worker shard.

pub mod base;
pub mod dc;
pub mod ie;
pub mod resources;
#[doc(hidden)]
pub mod testkit;
pub mod wa;
pub mod wire;

pub use resources::{IeConfig, IeResources, Recipe};

use crate::operator::Operator;
use std::collections::BTreeMap;
use std::sync::Arc;

type Factory = Arc<dyn Fn() -> Operator + Send + Sync>;

/// Registry of named operator factories, e.g. `"ie.annotate_sentences"`.
#[derive(Clone, Default)]
pub struct OperatorRegistry {
    factories: BTreeMap<String, Factory>,
}

impl OperatorRegistry {
    pub fn new() -> OperatorRegistry {
        OperatorRegistry::default()
    }

    /// The full standard registry over trained IE resources.
    pub fn standard(resources: Arc<IeResources>) -> OperatorRegistry {
        let mut reg = OperatorRegistry::new();
        base::register(&mut reg);
        wa::register(&mut reg);
        ie::register(&mut reg, resources);
        dc::register(&mut reg);
        reg
    }

    /// Registers a factory under `name` (package-qualified).
    pub fn register(&mut self, name: &str, factory: impl Fn() -> Operator + Send + Sync + 'static) {
        self.factories.insert(name.to_string(), Arc::new(factory));
    }

    /// Instantiates an operator by name.
    pub fn create(&self, name: &str) -> Option<Operator> {
        self.factories.get(name).map(|f| f())
    }

    /// All registered names, sorted.
    pub fn names(&self) -> Vec<&str> {
        self.factories.keys().map(String::as_str).collect()
    }

    pub fn len(&self) -> usize {
        self.factories.len()
    }

    pub fn is_empty(&self) -> bool {
        self.factories.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use websift_corpus::LexiconScale;

    #[test]
    fn standard_registry_is_well_stocked() {
        let resources = Arc::new(IeResources::quick_for_tests(LexiconScale::tiny()));
        let reg = OperatorRegistry::standard(resources);
        assert!(reg.len() >= 20, "only {} operators registered", reg.len());
        for prefix in ["base.", "ie.", "wa.", "dc."] {
            assert!(
                reg.names().iter().any(|n| n.starts_with(prefix)),
                "missing package {prefix}"
            );
        }
    }

    #[test]
    fn create_unknown_is_none() {
        let reg = OperatorRegistry::new();
        assert!(reg.create("nope.nothing").is_none());
    }
}
