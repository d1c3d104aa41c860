//! Address-sampling mechanisms (paper §3).
//!
//! Address sampling collects (instruction, data address) pairs so memory
//! references can be associated with the data they touch. The paper builds
//! its profiler on six mechanisms — five hardware schemes plus a software
//! fallback — and §10 catalogues how their semantics differ. This crate
//! defines each one as a row of [`MECHANISMS`] — what qualifies for
//! sampling, what a sample captures, what it costs (the overhead model
//! that reproduces Table 2) and its Table 1 configuration — interpreted by
//! the one [`Sampler`] the execution engine's event stream drives.

pub mod config;
pub mod mechanism;
pub mod mechanisms;
pub mod sample;

pub use config::{MechanismConfig, Table1Row};
pub use mechanism::{
    AccessOutcome, Capabilities, ComputeOutcome, MechanismKind, MechanismSpec, Qualifier,
    MECHANISMS,
};
pub use mechanisms::Sampler;
pub use sample::Sample;
