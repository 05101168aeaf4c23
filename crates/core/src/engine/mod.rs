//! The sharded simulation engine.
//!
//! PR 4 made one simulation fast; this module makes it *decomposable*.
//! The pre-shard monolith — one `&mut self` event loop mutating
//! every subsystem — is split into three state machines with explicit
//! boundaries, following the component-per-actor shape of discrete-event
//! frameworks like dslab and the piecewise-deterministic event semantics
//! the underlying model has always had:
//!
//! * [`VcShard`] — one per Virtual Cluster. Owns the framework master,
//!   the applications the VC hosts, their execution stints, in-flight
//!   acquisitions and a **shard-local calendar event queue** (the PR-4
//!   [`meryn_sim::EventQueue`]). Shard handlers mutate *only* shard
//!   state; anything they need from the shared world is emitted as a
//!   typed [`Effect`].
//! * [`SharedFabric`] — the singletons: private pool, public clouds,
//!   billing ledger, usage metrics, Client-Manager queue and the latency
//!   RNG. It consumes effects; it never calls into shards.
//! * [`Platform`] — owns both plus a sequential control queue
//!   (cloud-lease closes); the one engine type callers construct. Per
//!   time step it drains the same-instant run of shard events and
//!   processes each shard's slice in turn on the calling thread,
//!   appending its effects to one buffer. When the run spans shards, a
//!   stable sort merges that buffer into canonical `(due, vc_id, seq)`
//!   order; then the effects apply sequentially at the run's barrier
//!   (see the executor's module docs). [`Platform::step`] advances one
//!   instant of that same loop.
//!
//! Determinism is by construction, not by luck: shard processing touches
//! disjoint state, effect application follows a canonical order, every
//! event carries a globally-unique sequence tag handed out by one
//! counter, and the engine spawns no threads — so a report depends
//! neither on the order shards are processed in nor on the thread
//! count.

mod effects;
mod executor;
mod fabric;
mod shard;

pub use effects::{Effect, EffectKey, EffectSink, SequencedEffect};
pub use executor::{EngineCheckpoint, Platform, StreamError};
pub use fabric::SharedFabric;
pub use shard::{ShardSnapshot, VcShard};
