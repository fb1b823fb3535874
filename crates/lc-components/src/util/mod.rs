//! Shared low-level utilities for the component library.

pub(crate) mod bitpack;
pub mod codec;
pub(crate) mod varint;
pub mod words;
