//! **buckwild-serve**: online low-precision inference with live model
//! hot-swap.
//!
//! The training side of this workspace produces quantized models; this
//! crate answers predictions from them *while training continues*. The
//! pieces:
//!
//! * [`SnapshotHub`] — a double-buffered, epoch-tagged exchange between
//!   one training publisher and many serving readers. Training installs
//!   [`SnapshotHub::observer`] via `SgdConfig::on_snapshot`; after every
//!   epoch (on both the shared-model and sharded-delta backends) the hub
//!   receives an [`EpochSnapshot`](buckwild::EpochSnapshot) holding the raw
//!   fixed-point words.
//!   Readers acquire the active slot and clone an `Arc` — the publisher
//!   never blocks on them, and a reader mid-request keeps its consistent
//!   epoch while newer ones swap in.
//! * [`PredictServer`] — a sharded TCP server: one accept thread per
//!   shard on a `try_clone`d listener, serving the length-prefixed
//!   binary protocol in [`wire`]. Batches are scored with the batched
//!   fixed-point dot kernels through the `buckwild::Predictor` trait,
//!   directly on the quantized words — the memory-bandwidth argument for
//!   serving from low precision is the same one the paper makes for
//!   training in it. Request latency lands in `serve.request_ns`
//!   (p50/p95/p99 via the telemetry histogram), volumes in the other
//!   `serve.*` counters, and each request can emit a `Phase::Request`
//!   span via [`PredictServer::start_traced`]. With
//!   [`ServeConfig::metrics_addr`] the server also binds an always-on
//!   Prometheus scrape endpoint (via `buckwild-obs`), and
//!   [`ServeConfig::max_connections`] caps concurrent connections —
//!   overflow closes immediately and counts in `serve.rejected_total`,
//!   while `serve.active_connections` gauges the open set.
//! * [`PredictClient`] — a blocking client; each response carries the
//!   epoch tag of the snapshot that answered it, so staleness is
//!   observable end to end.
//!
//! Train, serve, and query in one process:
//!
//! ```
//! use std::sync::Arc;
//! use buckwild::prelude::*;
//! use buckwild_serve::{PredictClient, PredictServer, ServeConfig, SnapshotHub};
//!
//! let problem = buckwild_dataset::generate::logistic_dense(16, 120, 9);
//! let hub = Arc::new(SnapshotHub::new());
//! let server = PredictServer::start(Arc::clone(&hub), &ServeConfig::new("127.0.0.1:0").shards(1))?;
//!
//! // Normally training runs on its own thread while clients query; here
//! // it finishes first so the doc test is deterministic.
//! SgdConfig::new(Loss::Logistic)
//!     .signature("D8M8".parse().unwrap())
//!     .epochs(3)
//!     .on_snapshot(hub.observer())
//!     .train(&problem.data)?;
//!
//! let mut client = PredictClient::connect(server.local_addr())?;
//! let batch = vec![0.25f32; 2 * 16]; // two rows, 16 features each
//! let response = client.predict(&batch, 16)?;
//! assert!(response.is_ok());
//! assert_eq!(response.scores.len(), 2);
//! assert_eq!(response.epoch, 2); // served by the last published epoch
//!
//! drop(client);
//! let metrics = server.shutdown();
//! assert_eq!(metrics.counter("serve.requests"), Some(1));
//! assert_eq!(metrics.counter("serve.predictions"), Some(2));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod client;
mod hub;
mod server;
pub mod wire;

pub use client::PredictClient;
pub use hub::SnapshotHub;
pub use server::{metric, PredictServer, ServeConfig};
