//! The operator wire table: how an [`Operator`] crosses a process
//! boundary without its closure.
//!
//! A `packages::*` constructor stamps the operator it builds with its own
//! name and encoded arguments ([`Operator::wire`]). [`encode_operator`]
//! writes that, plus the cost model the operator carries *now* (`cost` is
//! a public field; per-record simulated charges are computed worker-side
//! and must match the parent's). [`decode_operator`] looks the name up in
//! [`FACTORIES`] and calls the very same constructor — so parent and
//! worker run one definition of every operator.
//!
//! Everything read here arrives over a shard channel and is untrusted:
//! unknown names, truncated or absurd parameters, and trailing garbage
//! are typed [`WireError`]s naming the factory, never panics, and nothing
//! is allocated or trained on a forged size (see `Recipe::decode`).

use super::{base, dc, ie, testkit, wa, IeResources};
use crate::operator::{CostModel, Operator};
use crate::packages::resources::Recipe;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use websift_ner::EntityType;
use websift_resilience::{CodecError, Reader, Snapshot, Writer};
use websift_text::PosTagger;

type Rebuild = fn(&mut Reader<'_>) -> Result<Operator, CodecError>;

/// Every shippable constructor, by the name it stamps.
const FACTORIES: &[(&str, Rebuild)] = &[
    ("base.filter_length", |r| Ok(base::filter_length(r.usize()?))),
    ("base.filter_min_length", |r| Ok(base::filter_min_length(r.usize()?))),
    ("base.project", |r| Ok(base::project(Snapshot::decode(r)?))),
    ("base.identity", |_| Ok(base::identity())),
    ("base.count_by", |r| Ok(base::count_by(&r.str()?))),
    ("wa.detect_markup", |_| Ok(wa::detect_markup())),
    ("wa.repair_markup", |_| Ok(wa::repair_markup_op())),
    ("wa.remove_markup", |_| Ok(wa::remove_markup())),
    ("wa.extract_net_text", |_| Ok(wa::extract_net_text())),
    ("wa.extract_links", |_| Ok(wa::extract_links_op())),
    ("dc.drop_untranscodable", |_| Ok(dc::drop_untranscodable())),
    ("dc.filter_empty_text", |_| Ok(dc::filter_empty_text())),
    ("dc.normalize_whitespace", |_| Ok(dc::normalize_whitespace())),
    ("dc.dedup_entities", |_| Ok(dc::dedup_entities())),
    ("ie.annotate_sentences", |_| Ok(ie::annotate_sentences())),
    ("ie.annotate_tokens", |_| Ok(ie::annotate_tokens())),
    ("ie.annotate_pos", |r| {
        let max_tokens = r.usize()?;
        if max_tokens == 0 {
            return Err(CodecError::Oversize { what: "pos token budget", value: 0 });
        }
        let tagger = PosTagger::pretrained().clone().with_max_tokens(max_tokens);
        Ok(ie::annotate_pos(Arc::new(tagger)))
    }),
    ("ie.annotate_negation", |_| Ok(ie::annotate_negation())),
    ("ie.annotate_pronouns", |_| Ok(ie::annotate_pronouns())),
    ("ie.annotate_parentheses", |_| Ok(ie::annotate_parentheses())),
    ("ie.annotate_entities_dict", |r| {
        let (resources, entity) = resources_and_entity(r)?;
        Ok(ie::annotate_entities_dict(&resources, entity))
    }),
    ("ie.annotate_entities_ml", |r| {
        let (resources, entity) = resources_and_entity(r)?;
        Ok(ie::annotate_entities_ml(&resources, entity))
    }),
    ("ie.explode_tokens", |_| Ok(ie::explode_tokens())),
    ("testkit.stamp", |_| Ok(testkit::stamp())),
    ("testkit.dup", |_| Ok(testkit::dup())),
    ("testkit.parity", |_| Ok(testkit::parity())),
    ("testkit.grow", |_| Ok(testkit::grow())),
    ("testkit.needs_stamp", |_| Ok(testkit::needs_stamp())),
    ("testkit.tally", |_| Ok(testkit::tally())),
];

/// The parameters of a resource-bound annotator: the recipe (resolved
/// through the process-wide memo, so a worker trains once per recipe)
/// and the entity class.
fn resources_and_entity(r: &mut Reader<'_>) -> Result<(IeResources, EntityType), CodecError> {
    let recipe = Recipe::decode(r)?;
    let tag = r.u8()?;
    let entity = EntityType::all()
        .get(usize::from(tag))
        .copied()
        .ok_or(CodecError::BadTag { what: "entity type", tag })?;
    Ok((IeResources::for_recipe(recipe), entity))
}

/// Why wire bytes did not yield an operator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The bytes around the operators (or a factory name) are corrupt.
    Codec(CodecError),
    /// No constructor is registered under this name.
    UnknownFactory(String),
    /// The named constructor's parameters or cost did not decode.
    BadParams { factory: &'static str, source: CodecError },
    /// The named constructor panicked on parameters that decoded (an
    /// in-bounds but degenerate recipe, say).
    Panicked { factory: &'static str },
    /// The operator decoded, but not into the kind its place in the
    /// stage task requires.
    Misplaced { operator: String, role: &'static str },
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Codec(e) => write!(f, "stage task corrupt: {e}"),
            WireError::UnknownFactory(name) => {
                write!(f, "no operator factory named '{name}' in this worker")
            }
            WireError::BadParams { factory, source } => {
                write!(f, "operator factory '{factory}': bad parameters: {source}")
            }
            WireError::Panicked { factory } => {
                write!(f, "operator factory '{factory}' panicked on its parameters")
            }
            WireError::Misplaced { operator, role } => {
                write!(f, "operator '{operator}' cannot serve as {role}")
            }
        }
    }
}

impl std::error::Error for WireError {}

impl From<CodecError> for WireError {
    fn from(e: CodecError) -> WireError {
        WireError::Codec(e)
    }
}

/// Writes `op`'s wire form and current cost model. `false` (nothing
/// written) when the operator is closure-built and has no wire form.
pub fn encode_operator(op: &Operator, w: &mut Writer) -> bool {
    let Some(wire) = op.wire() else { return false };
    w.str(wire.factory);
    w.bytes(&wire.params);
    w.f64(op.cost.startup_secs);
    w.u64(op.cost.memory_bytes);
    w.f64(op.cost.us_per_char);
    op.cost.quadratic_ref.encode(w);
    true
}

/// The one place wire bytes become an [`Operator`]: by calling the
/// public constructor the name stands for.
pub fn decode_operator(r: &mut Reader<'_>) -> Result<Operator, WireError> {
    let name = r.str()?;
    let Some(&(factory, rebuild)) = FACTORIES.iter().find(|(f, _)| *f == name) else {
        return Err(WireError::UnknownFactory(name));
    };
    let bad = |source| WireError::BadParams { factory, source };
    let params = r.bytes().map_err(bad)?;
    let mut pr = Reader::new(&params);
    // Rebuilding may train taggers from a recipe; whatever that trips
    // over is this frame's problem, not the worker's death.
    let op = catch_unwind(AssertUnwindSafe(|| rebuild(&mut pr)))
        .map_err(|_| WireError::Panicked { factory })?
        .map_err(bad)?;
    if !pr.is_empty() {
        let value = u64::try_from(pr.remaining()).unwrap_or(u64::MAX);
        return Err(bad(CodecError::Oversize { what: "trailing parameter bytes", value }));
    }
    let cost = CostModel {
        startup_secs: r.f64().map_err(bad)?,
        memory_bytes: r.u64().map_err(bad)?,
        us_per_char: r.f64().map_err(bad)?,
        quadratic_ref: Snapshot::decode(r).map_err(bad)?,
    };
    Ok(op.with_cost(cost))
}

#[cfg(test)]
mod tests {
    use super::*;
    use websift_corpus::LexiconScale;

    fn roundtrip(op: &Operator) -> Operator {
        let mut w = Writer::new();
        assert!(encode_operator(op, &mut w), "{} has a wire form", op.name);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        let back = decode_operator(&mut r).expect("decodes");
        assert!(r.is_empty());
        back
    }

    #[test]
    fn every_table_row_rebuilds_the_constructor_that_stamps_its_name() {
        let mut names: Vec<&str> = FACTORIES.iter().map(|(name, _)| *name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), FACTORIES.len(), "factory names are unique");

        let resources = IeResources::quick_for_tests(LexiconScale::tiny());
        let built = [
            base::filter_length(9),
            base::filter_min_length(3),
            base::project(vec!["text".into()]),
            base::identity(),
            base::count_by("token"),
            wa::detect_markup(),
            wa::repair_markup_op(),
            wa::remove_markup(),
            wa::extract_net_text(),
            wa::extract_links_op(),
            dc::drop_untranscodable(),
            dc::filter_empty_text(),
            dc::normalize_whitespace(),
            dc::dedup_entities(),
            ie::annotate_sentences(),
            ie::annotate_tokens(),
            ie::annotate_pos(resources.pos.clone()),
            ie::annotate_negation(),
            ie::annotate_pronouns(),
            ie::annotate_parentheses(),
            ie::annotate_entities_dict(&resources, EntityType::Drug),
            ie::annotate_entities_ml(&resources, EntityType::Disease),
            ie::explode_tokens(),
            testkit::stamp(),
            testkit::dup(),
            testkit::parity(),
            testkit::grow(),
            testkit::needs_stamp(),
            testkit::tally(),
        ];
        assert_eq!(built.len(), FACTORIES.len(), "one sample per table row");
        for (op, (factory, _)) in built.iter().zip(FACTORIES) {
            assert_eq!(op.wire().map(|w| w.factory), Some(*factory));
            let back = roundtrip(op);
            // the rebuilt operator is the constructor's own output again
            assert_eq!(back.name, op.name);
            assert_eq!(back.kind, op.kind);
            assert_eq!(back.reads, op.reads);
            assert_eq!(back.writes, op.writes);
            assert_eq!(back.library, op.library);
            assert_eq!(back.cost, op.cost);
            assert_eq!(back.wire(), op.wire());
        }
    }

    #[test]
    fn a_cost_override_travels_with_the_operator() {
        let mut op = ie::annotate_tokens();
        op.cost.us_per_char = 123.5;
        op.cost.quadratic_ref = Some(77.0);
        assert_eq!(roundtrip(&op).cost, op.cost);
    }

    #[test]
    fn closure_built_and_custom_tagger_operators_have_no_wire_form() {
        let closure = Operator::map("adhoc", crate::operator::Package::Base, |r| r);
        assert!(!encode_operator(&closure, &mut Writer::new()));
        let custom = PosTagger::train(&websift_text::pos::builtin_training_corpus());
        assert!(ie::annotate_pos(Arc::new(custom)).wire().is_none());
    }

    #[test]
    fn rebuilt_resource_operators_tag_like_the_parents() {
        let resources = IeResources::quick_for_tests(LexiconScale::tiny());
        let gene = &websift_corpus::Lexicon::generate(LexiconScale::tiny()).genes()[0].clone();
        let mut doc = crate::record::Record::new();
        doc.set("text", format!("Mutations of {gene} were frequent."));
        for op in [
            ie::annotate_entities_dict(&resources, EntityType::Gene),
            ie::annotate_entities_ml(&resources, EntityType::Gene),
        ] {
            assert_eq!(roundtrip(&op).apply(vec![doc.clone()]), op.apply(vec![doc.clone()]));
        }
    }
}
