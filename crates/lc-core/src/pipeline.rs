//! Pipelines: ordered chains of components.
//!
//! A compression pipeline applies its stages in order during encoding and
//! the inverse transformations in reverse order during decoding (paper
//! Fig. 1). The study instantiates three-stage pipelines whose final stage
//! must be a reducer (placing a non-reducer last is useless; §5).

use std::fmt;
use std::sync::Arc;

use crate::component::Component;
use crate::error::PipelineError;

/// An ordered chain of components.
#[derive(Clone)]
pub struct Pipeline {
    stages: Vec<Arc<dyn Component>>,
}

impl Pipeline {
    /// Build a pipeline from stages in application (encode) order.
    pub fn new(stages: Vec<Arc<dyn Component>>) -> Result<Self, PipelineError> {
        if stages.is_empty() {
            return Err(PipelineError::Empty);
        }
        Ok(Self { stages })
    }

    /// Parse a whitespace-separated pipeline description such as
    /// `"BIT_4 DIFF_4 RZE_4"`, resolving names through `resolve`
    /// (typically `lc_components::registry::lookup`).
    pub fn parse<R>(text: &str, resolve: R) -> Result<Self, PipelineError>
    where
        R: Fn(&str) -> Option<Arc<dyn Component>>,
    {
        let mut stages = Vec::new();
        for name in text.split_whitespace() {
            let c =
                resolve(name).ok_or_else(|| PipelineError::UnknownComponent(name.to_string()))?;
            stages.push(c);
        }
        Self::new(stages)
    }

    /// The stages, in encode order.
    pub fn stages(&self) -> &[Arc<dyn Component>] {
        &self.stages
    }

    /// Number of stages.
    pub fn len(&self) -> usize {
        self.stages.len()
    }

    /// Whether the pipeline has no stages (never true for a constructed
    /// pipeline; kept for API completeness).
    pub fn is_empty(&self) -> bool {
        self.stages.is_empty()
    }

    /// Canonical space-separated description, e.g. `"BIT_4 DIFF_4 RZE_4"`.
    pub fn describe(&self) -> String {
        self.stages
            .iter()
            .map(|s| s.name())
            .collect::<Vec<_>>()
            .join(" ")
    }

    /// Whether every stage has the same word size (used by the paper's
    /// word-size comparison, §6.2, which omits mixed-word-size pipelines).
    pub fn uniform_word_size(&self) -> Option<usize> {
        let w = self.stages[0].word_size();
        self.stages.iter().all(|s| s.word_size() == w).then_some(w)
    }
}

impl fmt::Debug for Pipeline {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Pipeline({})", self.describe())
    }
}

#[cfg(test)]
pub(crate) mod test_support {
    //! Minimal in-crate components for framework tests (the real library
    //! lives in `lc-components`; these keep lc-core's tests dependency-free).

    use super::*;
    use crate::component::{Complexity, ComponentKind, SpanClass, WorkClass};
    use crate::error::DecodeError;
    use crate::stats::KernelStats;

    /// Identity "mutator": adds 1 to every byte (wrapping).
    pub struct AddOne;

    impl Component for AddOne {
        fn name(&self) -> &'static str {
            "ADD1_1"
        }
        fn kind(&self) -> ComponentKind {
            ComponentKind::Mutator
        }
        fn word_size(&self) -> usize {
            1
        }
        fn complexity(&self) -> Complexity {
            Complexity::new(
                WorkClass::N,
                SpanClass::Const,
                WorkClass::N,
                SpanClass::Const,
            )
        }
        fn encode_chunk(&self, input: &[u8], out: &mut Vec<u8>, stats: &mut KernelStats) {
            stats.words += input.len() as u64;
            out.extend(input.iter().map(|b| b.wrapping_add(1)));
        }
        fn decode_chunk(
            &self,
            input: &[u8],
            out: &mut Vec<u8>,
            stats: &mut KernelStats,
        ) -> Result<(), DecodeError> {
            stats.words += input.len() as u64;
            out.extend(input.iter().map(|b| b.wrapping_sub(1)));
            Ok(())
        }
    }

    /// Toy reducer: drops trailing zero bytes, prefixing the kept length.
    /// Compresses exactly when the chunk ends in ≥ 5 zero bytes.
    pub struct DropTrailingZeros;

    impl Component for DropTrailingZeros {
        fn name(&self) -> &'static str {
            "DTZ_1"
        }
        fn kind(&self) -> ComponentKind {
            ComponentKind::Reducer
        }
        fn word_size(&self) -> usize {
            1
        }
        fn complexity(&self) -> Complexity {
            Complexity::new(
                WorkClass::N,
                SpanClass::LogN,
                WorkClass::N,
                SpanClass::Const,
            )
        }
        fn encode_chunk(&self, input: &[u8], out: &mut Vec<u8>, stats: &mut KernelStats) {
            stats.words += input.len() as u64;
            let kept = input.iter().rposition(|&b| b != 0).map_or(0, |p| p + 1);
            out.extend_from_slice(&(kept as u32).to_le_bytes());
            out.extend_from_slice(&(input.len() as u32).to_le_bytes());
            out.extend_from_slice(&input[..kept]);
        }
        fn decode_chunk(
            &self,
            input: &[u8],
            out: &mut Vec<u8>,
            stats: &mut KernelStats,
        ) -> Result<(), DecodeError> {
            if input.len() < 8 {
                return Err(DecodeError::Truncated {
                    context: "DTZ header",
                });
            }
            let kept = u32::from_le_bytes(input[0..4].try_into().unwrap()) as usize;
            let total = u32::from_le_bytes(input[4..8].try_into().unwrap()) as usize;
            if input.len() != 8 + kept || kept > total {
                return Err(DecodeError::Corrupt {
                    context: "DTZ lengths",
                });
            }
            stats.words += total as u64;
            out.extend_from_slice(&input[8..]);
            out.resize(out.len() + (total - kept), 0);
            Ok(())
        }
    }
}

#[cfg(test)]
impl Pipeline {
    /// Build a study pipeline: exactly three stages with a reducer last.
    pub(crate) fn three_stage(
        s1: Arc<dyn Component>,
        s2: Arc<dyn Component>,
        s3: Arc<dyn Component>,
    ) -> Result<Self, PipelineError> {
        if s3.kind() != crate::component::ComponentKind::Reducer {
            return Err(PipelineError::LastStageNotReducer(s3.name().to_string()));
        }
        Self::new(vec![s1, s2, s3])
    }
}

#[cfg(test)]
mod tests {
    use super::test_support::{AddOne, DropTrailingZeros};
    use super::*;

    fn resolver(name: &str) -> Option<Arc<dyn Component>> {
        match name {
            "ADD1_1" => Some(Arc::new(AddOne)),
            "DTZ_1" => Some(Arc::new(DropTrailingZeros)),
            _ => None,
        }
    }

    #[test]
    fn empty_pipeline_rejected() {
        assert_eq!(Pipeline::new(vec![]).unwrap_err(), PipelineError::Empty);
    }

    #[test]
    fn three_stage_requires_reducer_last() {
        let err = Pipeline::three_stage(Arc::new(AddOne), Arc::new(AddOne), Arc::new(AddOne))
            .unwrap_err();
        assert_eq!(err, PipelineError::LastStageNotReducer("ADD1_1".into()));
        assert!(Pipeline::three_stage(
            Arc::new(AddOne),
            Arc::new(AddOne),
            Arc::new(DropTrailingZeros)
        )
        .is_ok());
    }

    #[test]
    fn parse_and_describe_roundtrip() {
        let p = Pipeline::parse("ADD1_1 DTZ_1", resolver).unwrap();
        assert_eq!(p.describe(), "ADD1_1 DTZ_1");
        assert_eq!(p.len(), 2);
    }

    #[test]
    fn parse_unknown_component() {
        let err = Pipeline::parse("ADD1_1 NOPE_2", resolver).unwrap_err();
        assert_eq!(err, PipelineError::UnknownComponent("NOPE_2".into()));
    }

    #[test]
    fn parse_empty_text() {
        assert_eq!(
            Pipeline::parse("  ", resolver).unwrap_err(),
            PipelineError::Empty
        );
    }

    #[test]
    fn uniform_word_size_detection() {
        let p = Pipeline::parse("ADD1_1 DTZ_1", resolver).unwrap();
        assert_eq!(p.uniform_word_size(), Some(1));
    }
}
