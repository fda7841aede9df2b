//! # mapreduce — an in-process shared-nothing MapReduce engine
//!
//! The LSH-DDP paper runs on Hadoop 1.2.1; this crate is the substrate that
//! replaces it. It is a *real* MapReduce implementation — user-defined
//! [`Mapper`]s and [`Reducer`]s, an optional [`Combiner`], a hash
//! [`Partitioner`], multi-threaded map and reduce task execution, and a
//! grouping shuffle — shrunk onto one machine's thread pool.
//!
//! Two properties matter for reproducing the paper's evaluation:
//!
//! 1. **Exact cost accounting.** Every key/value type implements
//!    [`ShuffleSize`]; the engine records shuffled bytes and records per job
//!    exactly like Hadoop's `REDUCE_SHUFFLE_BYTES`/`REDUCE_INPUT_RECORDS`
//!    counters. These feed Figure 10(b) and Table IV.
//! 2. **A cluster cost model.** [`cost::ClusterSpec`] converts a job's
//!    measured counters (CPU work units, shuffled bytes, records) into a
//!    simulated wall time for an arbitrary worker count, which is how the
//!    64-node EC2 experiment (91.2 h vs 1.3 h) is reproduced on one machine.
//!
//! ## Anatomy of a job
//!
//! ```
//! use mapreduce::{JobBuilder, JobConfig, Emitter, Mapper, Reducer};
//!
//! /// Tokenize lines.
//! struct Tokenize;
//! impl Mapper for Tokenize {
//!     type InKey = u64;            // line number
//!     type InValue = String;       // line text
//!     type OutKey = String;        // word
//!     type OutValue = u64;         // count
//!     fn map(&self, _k: u64, line: String, out: &mut Emitter<String, u64>) {
//!         for w in line.split_whitespace() {
//!             out.emit(w.to_string(), 1);
//!         }
//!     }
//! }
//!
//! /// Sum counts.
//! struct Sum;
//! impl Reducer for Sum {
//!     type InKey = String;
//!     type InValue = u64;
//!     type OutKey = String;
//!     type OutValue = u64;
//!     fn reduce(&self, k: &String, vs: Vec<u64>, out: &mut Emitter<String, u64>) {
//!         out.emit(k.clone(), vs.into_iter().sum());
//!     }
//! }
//!
//! let input = vec![(0u64, "a b a".to_string()), (1, "b".to_string())];
//! let (mut out, metrics) = JobBuilder::new("wordcount", Tokenize, Sum)
//!     .config(JobConfig::default())
//!     .run(input);
//! out.sort(); // output order follows the partitioning, not the keys
//! assert_eq!(out, vec![("a".into(), 2), ("b".into(), 2)]);
//! assert_eq!(metrics.map_output_records, 4);
//! ```

pub mod cost;
pub mod counters;
pub mod dfs;
pub mod driver;
pub mod fault;
pub mod io_shim;
pub mod job;
pub mod plan;
pub mod record;
pub mod spill;
pub mod task;
pub mod wire;

pub use cost::ClusterSpec;
pub use counters::{Counters, JobMetrics, TaskTimes};
pub use dfs::Dfs;
pub use driver::{Driver, MemoryGovernor};
pub use fault::{AttemptOutcome, ChaosPlan, FaultPlan, Phase, TaskWastage};
pub use io_shim::{FaultFile, FaultFs, IoFaultPlan};
pub use job::{HashPartitioner, JobBuilder, JobConfig, Partitioner};
pub use plan::{plan, IdentityMap, MapChain, Plan, PlanBuilder, ReduceStage, Snapshot, Stage};
pub use record::{checksum64, ShuffleSize};
pub use spill::{scan_frames, SegmentWriter, SpillDir, SpillSegment, SpilledRows};
pub use task::{Combiner, Emitter, FnMapper, FnReducer, Mapper, Reducer};
pub use wire::{decode, decode_framed, encode, encode_framed, Wire, WireError};
