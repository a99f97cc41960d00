//! The serving side: a 1-shard `PredictServer`, the benchmark's own
//! closed-loop client on `wire::{write_frame, read_frame}`, and windows of
//! requests timed send-start → decoded response.

use std::io::{self, BufReader, BufWriter};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::span::SpanLog;
use crate::surface::{counter, wire, Data, PredictServer, Predictor, ServeConfig, SnapshotHub};
use crate::train::Publisher;

/// Every `VERIFY_EVERY`th response is recomputed from the archived
/// snapshot its epoch names and compared bit for bit.
pub const VERIFY_EVERY: u64 = 64;
/// Every `TRACE_EVERY`th request of a traced window records its spans.
pub const TRACE_EVERY: u64 = 16;
/// Requests per serving window: the fewest whose 99th percentile still has
/// ten samples beyond it. A run holds dozens to hundreds of windows, so the
/// median over them shrugs off a disturbed second that would tilt a pooled
/// percentile.
pub const WINDOW_REQUESTS: u64 = 1000;

/// The instants around one request's four client-side steps.
#[derive(Debug, Clone, Copy)]
pub struct Stamps {
    /// Before `wire::encode_request`.
    pub start: Instant,
    /// After encode, before `wire::write_frame`.
    pub encoded: Instant,
    /// After the frame is flushed, before `wire::read_frame`.
    pub written: Instant,
    /// After the response frame arrived, before `wire::decode_response`.
    pub received: Instant,
    /// After decode.
    pub end: Instant,
}

/// One connection speaking the wire protocol directly.
#[derive(Debug)]
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
    frame: Vec<u8>,
    payload: Vec<u8>,
    /// Requests sent on this connection.
    pub sent: u64,
    /// Highest epoch any response carried; epochs may not go back.
    last_epoch: u64,
}

impl Client {
    /// Connects to `server`.
    pub fn connect(server: &PredictServer) -> io::Result<Self> {
        let stream = TcpStream::connect(server.local_addr())?;
        stream.set_nodelay(true)?;
        // A stuck server fails the run instead of hanging it.
        stream.set_read_timeout(Some(Duration::from_secs(30)))?;
        Ok(Client {
            reader: BufReader::new(stream.try_clone()?),
            writer: BufWriter::new(stream),
            frame: Vec::new(),
            payload: Vec::new(),
            sent: 0,
            last_epoch: 0,
        })
    }

    /// One request/response round trip.
    pub fn request(
        &mut self,
        batch: &[f32],
        features: usize,
    ) -> io::Result<(wire::Response, Stamps)> {
        let start = Instant::now();
        wire::encode_request(&mut self.frame, batch, features);
        let encoded = Instant::now();
        self.sent += 1;
        wire::write_frame(&mut self.writer, &self.frame)?;
        let written = Instant::now();
        if !wire::read_frame(&mut self.reader, &mut self.payload)? {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        let received = Instant::now();
        let response = wire::decode_response(&self.payload).map_err(io::Error::from)?;
        let end = Instant::now();
        Ok((
            response,
            Stamps {
                start,
                encoded,
                written,
                received,
                end,
            },
        ))
    }
}

/// The request batches a client cycles through: consecutive dataset
/// examples, `rows` per batch, as dense `f32` rows.
pub fn request_pool(data: &Data, rows: usize) -> Vec<Vec<f32>> {
    const POOL: usize = 4;
    (0..POOL)
        .map(|b| {
            (0..rows)
                .flat_map(|r| data.dense_row((b * rows + r) % data.examples()))
                .collect()
        })
        .collect()
}

/// A running server with its hub, publisher and one connected client.
#[derive(Debug)]
pub struct Served {
    server: PredictServer,
    /// The `on_snapshot` wrapper feeding the server's hub.
    pub publisher: Arc<Publisher>,
    /// The one closed-loop connection.
    pub client: Client,
}

impl Served {
    /// Binds a 1-shard server on a loopback port of the OS's choosing and
    /// connects the client.
    pub fn start(traced: bool) -> io::Result<Self> {
        let hub = Arc::new(SnapshotHub::new());
        let config = ServeConfig::new("127.0.0.1:0").shards(1);
        let server = PredictServer::start(Arc::clone(&hub), &config)?;
        let client = Client::connect(&server)?;
        Ok(Served {
            server,
            publisher: Publisher::new(hub, traced),
            client,
        })
    }

    /// Closes the connection, stops the server and waits for its threads;
    /// returns the server's own request count.
    pub fn shutdown(self) -> u64 {
        let Served { server, client, .. } = self;
        drop(client);
        server.shutdown().counter(counter::REQUESTS).unwrap_or(0)
    }
}

/// One window of closed-loop requests.
#[derive(Debug, Clone, Default)]
pub struct Window {
    /// Round-trip nanoseconds of every OK response, in arrival order.
    pub latency_ns: Vec<u64>,
    /// `write_frame` nanoseconds of the traced requests.
    pub write_ns: Vec<u64>,
    /// `read_frame` (waiting) nanoseconds of the traced requests.
    pub wait_ns: Vec<u64>,
    /// Requests sent.
    pub attempted: u64,
    /// Requests that failed a check.
    pub failed: u64,
    /// Responses compared bit for bit with their snapshot.
    pub verified: u64,
    /// Sum over traced responses of `hub.latest_epoch() - response.epoch`.
    pub lag_sum: u64,
    /// Responses `lag_sum` was taken over.
    pub lag_samples: u64,
    /// Seconds the window ran.
    pub elapsed_s: f64,
    /// The first failure, for the report.
    pub first_failure: Option<String>,
}

impl Window {
    /// OK responses per second.
    pub fn rps(&self) -> f64 {
        self.latency_ns.len() as f64 / self.elapsed_s
    }

    fn fail(&mut self, why: String) {
        self.failed += 1;
        self.first_failure.get_or_insert(why);
    }
}

/// Checks one response to `batch`: status OK, one score per row, epoch not
/// going back and, when `verify`, every score bit-identical to
/// `score_batch` on the archived snapshot the response's epoch names.
/// Returns whether the response was verified.
pub fn check_response(
    served: &mut Served,
    batch: &[f32],
    features: usize,
    response: &wire::Response,
    verify: bool,
    expected: &mut Vec<f32>,
) -> Result<bool, String> {
    if !response.is_ok() {
        return Err(format!("status {}", response.status));
    }
    let rows = batch.len() / features;
    if response.scores.len() != rows {
        return Err(format!("{} scores for {rows} rows", response.scores.len()));
    }
    if response.epoch < served.client.last_epoch {
        return Err(format!(
            "epoch went back from {} to {}",
            served.client.last_epoch, response.epoch
        ));
    }
    served.client.last_epoch = response.epoch;
    if !verify {
        return Ok(false);
    }
    let Some(model) = served.publisher.model(response.epoch) else {
        return Err(format!("no archived snapshot for epoch {}", response.epoch));
    };
    expected.clear();
    expected.resize(rows, 0f32);
    model.score_batch(batch, expected);
    let same = expected
        .iter()
        .zip(&response.scores)
        .all(|(a, b)| a.to_bits() == b.to_bits());
    if same {
        Ok(true)
    } else {
        Err(format!("scores differ from snapshot {}", response.epoch))
    }
}

/// Sends [`WINDOW_REQUESTS`] requests back to back, checks every response
/// with [`check_response`] and verifies every [`VERIFY_EVERY`]th. With a
/// `log`, every [`TRACE_EVERY`]th request records its spans.
pub fn run_window(
    served: &mut Served,
    pool: &[Vec<f32>],
    features: usize,
    mut log: Option<&mut SpanLog>,
) -> Window {
    let mut w = Window::default();
    let mut expected = Vec::new();
    let begin = Instant::now();
    while w.attempted < WINDOW_REQUESTS {
        let batch = &pool[(served.client.sent % pool.len() as u64) as usize];
        w.attempted += 1;
        let (response, t) = match served.client.request(batch, features) {
            Ok(ok) => ok,
            Err(e) => {
                // The connection is gone; nothing further can succeed.
                w.fail(format!("request failed: {e}"));
                break;
            }
        };
        let seq = served.client.sent;
        let verify = seq.is_multiple_of(VERIFY_EVERY);
        match check_response(served, batch, features, &response, verify, &mut expected) {
            Err(why) => w.fail(why),
            Ok(verified) => {
                w.verified += u64::from(verified);
                w.latency_ns.push((t.end - t.start).as_nanos() as u64);
            }
        }
        if let Some(log) = log.as_deref_mut() {
            if seq.is_multiple_of(TRACE_EVERY) {
                let request = log.push("request", t.start, t.end, None, seq, 1);
                let p = Some(request);
                log.push("wire.encode_request", t.start, t.encoded, p, seq, 1);
                log.push("write_frame", t.encoded, t.written, p, seq, 1);
                log.push("wait_read_frame", t.written, t.received, p, seq, 1);
                log.push("wire.decode_response", t.received, t.end, p, seq, 1);
                w.write_ns.push((t.written - t.encoded).as_nanos() as u64);
                w.wait_ns.push((t.received - t.written).as_nanos() as u64);
                if let Some(latest) = served.publisher.hub().latest_epoch() {
                    w.lag_sum += latest.saturating_sub(response.epoch);
                    w.lag_samples += 1;
                }
            }
        }
    }
    w.elapsed_s = begin.elapsed().as_secs_f64();
    w
}
