//! # hpcnet-runtime — the managed runtime substrate
//!
//! Everything a CLI execution engine needs below the instruction level:
//!
//! * [`value`] — the tagged runtime value ([`Value`]) and object handle.
//! * [`object`] — the object model: instances with split primitive/reference
//!   field spaces, SZ arrays, true multidimensional arrays, boxed value
//!   types, strings; every object carries a monitor for `lock`/`Monitor.*`.
//! * [`heap`] — allocation, counted by whoever allocates and settled into
//!   the heap's totals once per activation, and an optional weak registry.
//! * [`gc`] — a safepoint cycle collector over the registry (reference
//!   counting via `Arc` reclaims acyclic garbage immediately; the collector
//!   breaks cycles, the job a tracing GC does in the paper's runtimes).
//! * [`monitor`] — recursive monitors (the CLI `Monitor.Enter/Exit` model):
//!   thin locks that inflate under contention.
//! * [`barrier`] — the two barrier algorithms the Java Grande multithreaded
//!   suite benchmarks: a shared-counter *Simple* barrier and a lock-free
//!   4-ary-tree *Tournament* barrier.
//! * [`threads`] — managed-thread registry mapping handles to OS threads.
//! * [`math`] — two math-library implementations: `fast` (hardware
//!   intrinsics, the CLR 1.1 profile in Graphs 6–8) and `strict` (software
//!   argument-reduction implementations, the JVM profile).
//! * [`jrandom`] — the `java.util.Random` LCG, kept identical across
//!   languages exactly as the paper keeps its support code identical.
//! * [`serial`] — the binary encoding used by the `Serial` micro-benchmark.
//! * [`timer`] — monotonic millis/nanos (the JGF timer base).

pub mod barrier;
pub mod gc;
pub mod heap;
pub mod jrandom;
pub mod math;
pub mod monitor;
pub mod object;
pub mod serial;
pub mod snapshot;
pub mod threads;
pub mod timer;
pub mod value;

pub use heap::{AllocCount, Heap, HeapStats};
pub use snapshot::{HeapSnapshot, RestoreStats};
pub use jrandom::JRandom;
pub use monitor::Monitor;
pub use object::{HeapObj, ObjBody, RefSlot};
pub use value::{Obj, Value};
