//! The litmus-test frontend (paper §6): a parser for the herdtools-style
//! `.litmus` format, a final-condition evaluator, a runner driving the
//! exhaustive oracle, and a built-in library of tests with their
//! paper/hardware expectations (the §7 concurrent validation suite).
//!
//! # Example
//!
//! ```
//! use ppc_litmus::{parse, run, Expectation};
//!
//! let src = r#"
//! POWER MP
//! {
//! 0:r1=x; 0:r2=y; 0:r7=1; 0:r8=1;
//! 1:r1=x; 1:r2=y;
//! x=0; y=0;
//! }
//!  P0           | P1           ;
//!  stw r7,0(r1) | lwz r5,0(r2) ;
//!  stw r8,0(r2) | lwz r4,0(r1) ;
//! exists (1:r5=1 /\ 1:r4=0)
//! "#;
//! let test = parse(src).unwrap();
//! let result = run(&test, &Default::default());
//! assert!(result.witnessed, "MP relaxed outcome is allowed");
//! ```

mod cond;
pub mod distrib;
mod families;
pub mod harness;
mod library;
mod parser;
mod run;
mod test;

pub use cond::{Cond, CondAtom, CondExpr, Quantifier};
pub use distrib::{
    maybe_run_worker, run_entry_distributed, run_remote_worker, run_source_distributed,
    DistribConfig,
};
pub use families::generated_suite;
pub use harness::{
    run_job, run_suite, run_suite_jobs, HarnessConfig, HarnessReport, Job, TestReport,
};
pub use library::{library, paper_section2_suite, LitmusEntry};
pub use parser::{parse, ParseError};
pub use run::{
    build_system, observations, run, run_entry, run_entry_limited, run_limited, CheckReport,
    RunResult,
};
pub use test::{Expectation, LitmusTest, ThreadCode};

#[cfg(test)]
mod tests;
