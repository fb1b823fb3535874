//! Round-trip verification helpers.
//!
//! LC maintains correctness independently of the compiler and GPU used
//! (paper §7); this reproduction asserts the same property everywhere via
//! these helpers.

use std::sync::Arc;

use lc_parallel::Pool;

use crate::archive;
use crate::component::Component;
use crate::error::DecodeError;
use crate::pipeline::Pipeline;
use crate::stats::KernelStats;

/// Round-trip `input` through a full pipeline encode/decode and assert the
/// output matches. Returns the compressed size on success.
pub fn roundtrip_pipeline<R>(
    pipeline: &Pipeline,
    input: &[u8],
    resolve: R,
    pool: &Pool,
) -> Result<usize, DecodeError>
where
    R: Fn(&str) -> Option<Arc<dyn Component>>,
{
    let encoded = archive::encode(pipeline, input, pool);
    let decoded = archive::decode(&encoded, resolve, pool)?;
    if decoded != input {
        return Err(DecodeError::Corrupt {
            context: "round-trip mismatch",
        });
    }
    Ok(encoded.len())
}

/// Round-trip a single chunk through one component and assert the output
/// matches the input. Returns the encoded size.
///
/// # Panics
///
/// Panics (with a diagnostic) if the component is not invertible on this
/// input — this is a test helper.
// pub-api: the round-trip assertion of lc-components' per-component unit tests.
pub fn roundtrip_component(component: &dyn Component, input: &[u8]) -> usize {
    let mut stats = KernelStats::new();
    let mut encoded = Vec::new();
    component.encode_chunk(input, &mut encoded, &mut stats);
    let mut decoded = Vec::new();
    component
        .decode_chunk(&encoded, &mut decoded, &mut stats)
        .unwrap_or_else(|e| panic!("{}: decode failed: {e}", component.name()));
    assert_eq!(
        decoded,
        input,
        "{}: round-trip mismatch on {} bytes",
        component.name(),
        input.len()
    );
    encoded.len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::test_support::{AddOne, DropTrailingZeros};

    fn resolver(name: &str) -> Option<Arc<dyn Component>> {
        match name {
            "ADD1_1" => Some(Arc::new(AddOne)),
            "DTZ_1" => Some(Arc::new(DropTrailingZeros)),
            _ => None,
        }
    }

    #[test]
    fn pipeline_roundtrip_ok() {
        let p = Pipeline::parse("ADD1_1 DTZ_1", resolver).unwrap();
        let pool = Pool::new(2);
        let data: Vec<u8> = (0..40_000).map(|i| (i % 17) as u8).collect();
        let size = roundtrip_pipeline(&p, &data, resolver, &pool).unwrap();
        assert!(size > 0);
    }

    #[test]
    fn component_roundtrip_ok() {
        roundtrip_component(&AddOne, b"hello world");
        roundtrip_component(&DropTrailingZeros, b"data\0\0\0\0\0\0\0\0");
        roundtrip_component(&DropTrailingZeros, b"");
    }
}
