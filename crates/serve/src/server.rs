//! The sharded TCP prediction server.
//!
//! One [`std::net::TcpListener`] is bound once and cloned into one accept
//! thread per shard (`TcpListener::try_clone`); the kernel load-balances
//! incoming connections across the blocked acceptors, so there is no
//! dispatcher thread and no cross-shard queue. Each shard serves a
//! connection to completion: read a frame, decode, score the batch
//! against the hub's current snapshot with the batched fixed-point
//! kernels, encode, write. All per-request buffers belong to the shard
//! and are reused without being re-initialised (see [`crate::wire`]), so
//! the steady state zero-fills nothing and allocates nothing but the
//! `Arc` clone of the snapshot.

use std::io::{self, BufWriter, Read};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use buckwild::Predictor;
use buckwild_obs::MetricsExporter;
use buckwild_telemetry::{Counter, Gauge, Histogram, MetricsSnapshot, Recorder, ShardedRecorder};
use buckwild_trace::{NoopTracer, Phase, Tracer, WorkerTracer};

use crate::hub::SnapshotHub;
use crate::wire::{self, status};

/// Metric names the server records into its [`ShardedRecorder`].
pub mod metric {
    /// Connections accepted, across all shards.
    pub const CONNECTIONS: &str = "serve.connections";
    /// Requests answered (any status).
    pub const REQUESTS: &str = "serve.requests";
    /// Individual predictions returned (sum of OK batch sizes).
    pub const PREDICTIONS: &str = "serve.predictions";
    /// Requests refused because the payload did not parse or the length
    /// prefix exceeded the frame cap.
    pub const BAD_REQUESTS: &str = "serve.bad_requests";
    /// Requests arriving before the first snapshot was published.
    pub const NO_MODEL: &str = "serve.no_model";
    /// Requests whose feature count did not match the model.
    pub const SHAPE_MISMATCH: &str = "serve.shape_mismatch";
    /// Per-request latency (decode through flush), nanoseconds.
    pub const REQUEST_NS: &str = "serve.request_ns";
    /// Epochs between the served snapshot and the newest published one.
    pub const EPOCH_LAG: &str = "serve.epoch_lag";
    /// Connections currently open, across all shards (gauge).
    pub const ACTIVE_CONNECTIONS: &str = "serve.active_connections";
    /// Connections refused by the [`ServeConfig::max_connections`] cap.
    ///
    /// [`ServeConfig::max_connections`]: super::ServeConfig::max_connections
    pub const REJECTED: &str = "serve.rejected_total";
}

/// How often a blocked connection read polls the shutdown flag.
const POLL_INTERVAL: Duration = Duration::from_millis(50);

/// Server configuration: bind address, shard count, connection cap, and
/// the optional always-on metrics endpoint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServeConfig {
    addr: String,
    shards: usize,
    max_connections: usize,
    metrics_addr: Option<String>,
}

impl ServeConfig {
    /// A config binding `addr` (use port 0 to let the OS pick) with a
    /// default shard count of `min(cores, 4)` — serving shares the
    /// machine with training, so it does not claim every core — no
    /// connection cap, and no metrics endpoint.
    pub fn new(addr: impl Into<String>) -> Self {
        ServeConfig {
            addr: addr.into(),
            shards: buckwild_affinity::core_count().clamp(1, 4),
            max_connections: 0,
            metrics_addr: None,
        }
    }

    /// Sets the number of accept/serve threads.
    ///
    /// # Panics
    ///
    /// Panics if `shards` is zero.
    #[must_use]
    pub fn shards(mut self, shards: usize) -> Self {
        assert!(shards > 0, "need at least one shard");
        self.shards = shards;
        self
    }

    /// Caps concurrently open connections across all shards; a connection
    /// arriving over the cap is closed immediately and counted in
    /// `serve.rejected_total`. `0` (the default) means unlimited.
    #[must_use]
    pub fn max_connections(mut self, max: usize) -> Self {
        self.max_connections = max;
        self
    }

    /// Also binds a Prometheus scrape endpoint at `addr` (use port 0 to
    /// let the OS pick) serving the live `serve.*` metrics for the
    /// server's lifetime.
    #[must_use]
    pub fn metrics_addr(mut self, addr: impl Into<String>) -> Self {
        self.metrics_addr = Some(addr.into());
        self
    }
}

/// A running prediction server.
///
/// Spawned by [`PredictServer::start`]; answers the wire protocol in
/// `crate::wire` until [`PredictServer::shutdown`]. Dropping without
/// calling `shutdown` leaves the shard threads running detached.
#[derive(Debug)]
pub struct PredictServer {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    recorder: Arc<ShardedRecorder>,
    handles: Vec<JoinHandle<()>>,
    exporter: Option<MetricsExporter>,
}

impl PredictServer {
    /// Binds and starts serving snapshots from `hub` without tracing.
    pub fn start(hub: Arc<SnapshotHub>, config: &ServeConfig) -> io::Result<Self> {
        Self::start_traced(hub, config, Arc::new(NoopTracer))
    }

    /// Binds and starts serving, recording one [`Phase::Request`] span
    /// per request into `tracer` (worker row = shard index).
    pub fn start_traced<T>(
        hub: Arc<SnapshotHub>,
        config: &ServeConfig,
        tracer: Arc<T>,
    ) -> io::Result<Self>
    where
        T: Tracer + Send + Sync + 'static,
    {
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let recorder = Arc::new(ShardedRecorder::new(config.shards));
        let exporter = match &config.metrics_addr {
            Some(metrics_addr) => {
                let source = Arc::clone(&recorder);
                Some(MetricsExporter::start(
                    metrics_addr,
                    Arc::new(move || source.snapshot()),
                )?)
            }
            None => None,
        };
        let active = Arc::new(AtomicU64::new(0));
        let mut handles = Vec::with_capacity(config.shards);
        for shard in 0..config.shards {
            let listener = listener.try_clone()?;
            let hub = Arc::clone(&hub);
            let shutdown = Arc::clone(&shutdown);
            let recorder = Arc::clone(&recorder);
            let tracer = Arc::clone(&tracer);
            let active = Arc::clone(&active);
            let max_connections = config.max_connections;
            handles.push(
                std::thread::Builder::new()
                    .name(format!("serve-{shard}"))
                    .spawn(move || {
                        shard_loop(
                            shard,
                            &listener,
                            &hub,
                            &recorder,
                            &shutdown,
                            tracer.as_ref(),
                            &active,
                            max_connections,
                        )
                    })
                    .expect("spawn serve shard"),
            );
        }
        Ok(PredictServer {
            addr,
            shutdown,
            recorder,
            handles,
            exporter,
        })
    }

    /// The bound address — the port to hand to [`PredictClient::connect`]
    /// when the config asked for port 0.
    ///
    /// [`PredictClient::connect`]: crate::PredictClient::connect
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The bound address of the metrics endpoint, when
    /// [`ServeConfig::metrics_addr`] asked for one.
    #[must_use]
    pub fn metrics_addr(&self) -> Option<SocketAddr> {
        self.exporter.as_ref().map(MetricsExporter::local_addr)
    }

    /// A point-in-time snapshot of the `serve.*` counters and latency
    /// histograms; callable while the server is running.
    #[must_use]
    pub fn metrics(&self) -> MetricsSnapshot {
        self.recorder.snapshot()
    }

    /// The live metrics recorder behind [`PredictServer::metrics`] —
    /// share it with an external sampler (an observability logger, a
    /// watchdog) that must outlive borrows of the server.
    #[must_use]
    pub fn recorder(&self) -> Arc<ShardedRecorder> {
        Arc::clone(&self.recorder)
    }

    /// Stops accepting, wakes every shard, joins them, and returns the
    /// final metrics. Connections still open when shutdown is called are
    /// closed within one poll interval: at a frame boundary, or mid-frame
    /// when the peer has stopped sending.
    pub fn shutdown(mut self) -> MetricsSnapshot {
        self.shutdown.store(true, Ordering::SeqCst);
        // Each blocked acceptor needs one wake-up connection; a shard
        // that happens to be serving sees the flag at its next poll.
        for _ in 0..self.handles.len() {
            let _ = TcpStream::connect(self.addr);
        }
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
        if let Some(exporter) = self.exporter.take() {
            exporter.shutdown();
        }
        self.recorder.snapshot()
    }
}

#[allow(clippy::too_many_arguments)]
fn shard_loop<T: Tracer>(
    shard: usize,
    listener: &TcpListener,
    hub: &SnapshotHub,
    recorder: &ShardedRecorder,
    shutdown: &AtomicBool,
    tracer: &T,
    active: &AtomicU64,
    max_connections: usize,
) {
    let connections = recorder.worker_counter(metric::CONNECTIONS, shard);
    let rejected = recorder.worker_counter(metric::REJECTED, shard);
    let requests = recorder.worker_counter(metric::REQUESTS, shard);
    let predictions = recorder.worker_counter(metric::PREDICTIONS, shard);
    let bad_requests = recorder.worker_counter(metric::BAD_REQUESTS, shard);
    let no_model = recorder.worker_counter(metric::NO_MODEL, shard);
    let shape_mismatch = recorder.worker_counter(metric::SHAPE_MISMATCH, shard);
    let request_ns = recorder.worker_histogram(metric::REQUEST_NS, shard);
    let epoch_lag = recorder.worker_histogram(metric::EPOCH_LAG, shard);
    let active_gauge = recorder.gauge(metric::ACTIVE_CONNECTIONS);
    let mut span = tracer.worker(shard);
    let mut scratch = Scratch::default();
    loop {
        if shutdown.load(Ordering::Relaxed) {
            return;
        }
        let stream = match listener.accept() {
            Ok((stream, _)) => stream,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => continue,
        };
        if shutdown.load(Ordering::Relaxed) {
            return;
        }
        // Claim an active slot; over the cap, count the rejection and
        // close immediately (dropping the stream resets the peer).
        let now_active = active.fetch_add(1, Ordering::Relaxed) + 1;
        if max_connections > 0 && now_active as usize > max_connections {
            rejected.incr();
            active.fetch_sub(1, Ordering::Relaxed);
            continue;
        }
        // Last-write-wins gauge: exact whenever writers quiesce.
        active_gauge.set(now_active as f64);
        connections.incr();
        let counters = Counters {
            requests: &requests,
            predictions: &predictions,
            bad_requests: &bad_requests,
            no_model: &no_model,
            shape_mismatch: &shape_mismatch,
            request_ns: &request_ns,
            epoch_lag: &epoch_lag,
        };
        // A connection error (peer reset mid-frame) only drops that
        // connection; the shard goes back to accepting.
        let _ = serve_connection(stream, hub, shutdown, &counters, &mut span, &mut scratch);
        let now_active = active.fetch_sub(1, Ordering::Relaxed).saturating_sub(1);
        active_gauge.set(now_active as f64);
    }
}

struct Counters<'a, C, H> {
    requests: &'a C,
    predictions: &'a C,
    bad_requests: &'a C,
    no_model: &'a C,
    shape_mismatch: &'a C,
    request_ns: &'a H,
    epoch_lag: &'a H,
}

/// Per-shard reusable buffers: no allocation on the steady-state path.
#[derive(Default)]
struct Scratch {
    payload: Vec<u8>,
    batch: Vec<f32>,
    scores: Vec<f32>,
    response: Vec<u8>,
}

fn serve_connection<C: Counter, H: Histogram, W: WorkerTracer>(
    stream: TcpStream,
    hub: &SnapshotHub,
    shutdown: &AtomicBool,
    counters: &Counters<'_, C, H>,
    span: &mut W,
    scratch: &mut Scratch,
) -> io::Result<()> {
    stream.set_nodelay(true)?;
    // The timeout bounds how long a quiet connection can delay shutdown:
    // every read that times out polls the flag, mid-frame included.
    stream.set_read_timeout(Some(POLL_INTERVAL))?;
    let mut reader = stream.try_clone()?;
    let mut writer = BufWriter::new(stream);
    loop {
        let len = match read_frame_len(&mut reader, shutdown) {
            FrameStart::Closed => return Ok(()),
            FrameStart::Failed(e) => return Err(e),
            FrameStart::Len(len) => len,
        };
        if len > wire::MAX_FRAME_BYTES {
            // Nothing after such a prefix can be trusted as a frame
            // boundary: refuse on the wire and in the counters, then close.
            counters.bad_requests.incr();
            wire::encode_response(&mut scratch.response, status::BAD_REQUEST, 0, &[]);
            wire::write_frame(&mut writer, &scratch.response)?;
            counters.requests.incr();
            return Ok(());
        }
        wire::read_payload(&mut reader, &mut scratch.payload, len, |e| {
            retryable(e) && !shutdown.load(Ordering::Relaxed)
        })?;

        let start = Instant::now();
        let span_start = span.begin();
        let mut rows = 0u64;
        match wire::decode_request(&scratch.payload, &mut scratch.batch) {
            Err(_) => {
                counters.bad_requests.incr();
                wire::encode_response(&mut scratch.response, status::BAD_REQUEST, 0, &[]);
            }
            Ok(header) => match hub.current() {
                None => {
                    counters.no_model.incr();
                    wire::encode_response(&mut scratch.response, status::NO_MODEL, 0, &[]);
                }
                Some(snap) if snap.model.features() != header.features => {
                    counters.shape_mismatch.incr();
                    wire::encode_response(
                        &mut scratch.response,
                        status::SHAPE_MISMATCH,
                        snap.epoch,
                        &[],
                    );
                }
                Some(snap) => {
                    rows = header.rows as u64;
                    scratch.scores.resize(header.rows, 0.0);
                    snap.model.score_batch(&scratch.batch, &mut scratch.scores);
                    wire::encode_response(
                        &mut scratch.response,
                        status::OK,
                        snap.epoch,
                        &scratch.scores,
                    );
                    counters.predictions.add(rows);
                    let lag = hub
                        .latest_epoch()
                        .map_or(0, |latest| latest.saturating_sub(snap.epoch));
                    counters.epoch_lag.record(lag as f64);
                }
            },
        }
        wire::write_frame(&mut writer, &scratch.response)?;
        counters.requests.incr();
        counters
            .request_ns
            .record(start.elapsed().as_nanos() as f64);
        span.end(Phase::Request, span_start, rows);
    }
}

enum FrameStart {
    /// Clean EOF at a frame boundary, or shutdown while idle.
    Closed,
    Failed(io::Error),
    Len(usize),
}

/// Reads the 4-byte length prefix. A poll timeout retries until the
/// shutdown flag is set; then it is a clean close before the first byte
/// and a failed frame after it, so a stalled peer cannot hold shutdown.
fn read_frame_len(reader: &mut impl Read, shutdown: &AtomicBool) -> FrameStart {
    let mut len_bytes = [0u8; 4];
    let mut filled = 0usize;
    loop {
        match reader.read(&mut len_bytes[filled..]) {
            Ok(0) if filled == 0 => return FrameStart::Closed,
            Ok(0) => {
                return FrameStart::Failed(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "stream ended inside a frame length prefix",
                ))
            }
            Ok(n) => {
                filled += n;
                if filled == 4 {
                    return FrameStart::Len(u32::from_le_bytes(len_bytes) as usize);
                }
            }
            Err(e) if retryable(&e) => {
                if shutdown.load(Ordering::Relaxed) {
                    return if filled == 0 {
                        FrameStart::Closed
                    } else {
                        FrameStart::Failed(e)
                    };
                }
            }
            Err(e) => return FrameStart::Failed(e),
        }
    }
}

/// Errors a blocked read retries: an interrupted call and the
/// connection's poll timeout.
fn retryable(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::Interrupted | io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
    )
}
