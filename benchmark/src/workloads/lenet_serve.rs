//! `lenet_serve`: an in-process `gcnn_serve::Server` on loopback under a
//! closed loop of pipelining clients.
//!
//! One worker, `max_batch` 8, `max_delay` 2 ms, LeNet-5 on 32×32 images;
//! `nproc` client connections (never more client threads than cores),
//! each keeping eight requests in flight. Closed loop, because every
//! client waits for a reply before it sends again; an arrival schedule
//! is a later workload. The batcher, the wire protocol and the thread
//! hand-offs dominate — the kernels are the cheap part. Every response
//! is checked against logits computed locally at set-up.

use super::{RunStats, Samples, Slice, TraceCtx, Workload, WARMUP_ITERS};
use crate::calib::Calibrator;
use crate::spans::Recorder;
use crate::{host, stats};
use gcnn_conv::Strategy;
use gcnn_models::data::synthetic_digits;
use gcnn_models::Network;
use gcnn_serve::protocol::{read_request, read_response, write_request, write_response};
use gcnn_serve::{BatchPolicy, Batcher, Client, Request, Response, ServeConfig, Server, Status};
use gcnn_tensor::{Shape4, Tensor4, Workspace};
use std::hint::black_box;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

const SIZE: usize = 32;
const CLASSES: usize = 10;
const MAX_BATCH: usize = 8;
const MAX_DELAY: Duration = Duration::from_millis(2);
/// Requests each connection keeps in flight.
const DEPTH: usize = 8;
/// Distinct request images, cycled.
const IMAGES: usize = 64;
/// Largest difference allowed between a served logit and the local one.
/// The conv layers run per image, so only the FC GEMM's row blocking
/// can differ with the batch a request happened to land in.
const LOGIT_TOL: f32 = 1e-4;
/// Spans each client thread may record in a traced window.
const CLIENT_SPANS: usize = 150_000;

pub struct LenetServe {
    seed: u64,
    // Declared before `server`: the connections must close before the
    // server drains, or its reader threads never see end-of-stream.
    clients: Vec<Client>,
    server: Server,
    images: Vec<Vec<f32>>,
    expect: Vec<Vec<f32>>,
}

/// Length of one slice of a serving window.
const SLICE: Duration = Duration::from_millis(100);

/// What one connection measured. Allocated on the driver thread before
/// the window opens, so no client thread grows the heap.
struct ClientStats {
    /// Latency of every response, in arrival order.
    samples: Samples,
    /// `slice_starts[s]` is the index in `samples` of the first response
    /// that arrived in slice `s` of the window.
    slice_starts: Vec<u32>,
    attempted: u64,
    failed: u64,
}

impl ClientStats {
    fn new(window: Duration) -> Self {
        let slices = (window.as_millis() / SLICE.as_millis()) as usize + 2;
        ClientStats {
            // A warm-up round (empty window) answers only what is in flight.
            samples: if window.is_zero() {
                Samples::with_capacity(4 * DEPTH)
            } else {
                Samples::new()
            },
            slice_starts: Vec::with_capacity(slices),
            attempted: 0,
            failed: 0,
        }
    }
}

fn net(seed: u64) -> Network {
    Network::lenet5(SIZE, CLASSES, Strategy::Unrolling, seed)
}

fn matches(resp: &Response, expect: &[f32]) -> bool {
    resp.status == Status::Ok
        && resp.values.len() == expect.len()
        && resp
            .values
            .iter()
            .zip(expect)
            .all(|(a, b)| (a - b).abs() <= LOGIT_TOL)
}

/// One connection's side of the loop: what it has sent and when.
struct Conn<'a> {
    client: &'a mut Client,
    images: &'a [Vec<f32>],
    /// Request `k` of this connection carries image `(offset + k) % IMAGES`.
    offset: usize,
    rec: Option<&'a mut Recorder>,
    sent_at: [Instant; DEPTH],
    first_id: Option<u64>,
    sent: usize,
}

impl Conn<'_> {
    fn send(&mut self) {
        let pixels = &self.images[(self.offset + self.sent) % IMAGES];
        let t0 = Instant::now();
        let span = self.rec.as_mut().map(|r| {
            r.set_iter(self.sent as u32);
            r.begin("serve.send")
        });
        let id = self
            .client
            .send(1, SIZE as u16, SIZE as u16, pixels)
            .expect("send request");
        if let (Some(r), Some(s)) = (self.rec.as_mut(), span) {
            r.end(s);
        }
        let first = *self.first_id.get_or_insert(id);
        assert_eq!(id, first + self.sent as u64, "client ids are sequential");
        self.sent_at[self.sent % DEPTH] = t0;
        self.sent += 1;
    }

    /// The next response, which request of this connection it answers,
    /// and how long that request took.
    fn recv(&mut self) -> (Response, usize, Duration) {
        let span = self.rec.as_mut().map(|r| r.begin("serve.recv"));
        let resp = self
            .client
            .recv()
            .expect("read response")
            .expect("server closed the connection");
        if let (Some(r), Some(s)) = (self.rec.as_mut(), span) {
            r.end(s);
        }
        let k = (resp.id - self.first_id.expect("a request was sent")) as usize;
        assert!(
            k < self.sent && self.sent - k <= DEPTH,
            "response to a request not in flight"
        );
        (resp, k, self.sent_at[k % DEPTH].elapsed())
    }
}

/// One connection's closed loop: keep [`DEPTH`] requests in flight until
/// `stop`, then collect what is outstanding. `start` is when the window
/// opened, for every connection alike.
fn client_loop(
    mut conn: Conn<'_>,
    expect: &[Vec<f32>],
    stop: &AtomicBool,
    start: Instant,
    out: &mut ClientStats,
) {
    let mut in_flight = 0usize;
    for _ in 0..DEPTH {
        conn.send();
        in_flight += 1;
    }
    while in_flight > 0 {
        let (resp, k, latency) = conn.recv();
        let slice = (start.elapsed().as_nanos() / SLICE.as_nanos()) as usize;
        while out.slice_starts.len() <= slice
            && out.slice_starts.len() < out.slice_starts.capacity()
        {
            out.slice_starts.push(out.samples.len() as u32);
        }
        out.samples.push(latency);
        out.attempted += 1;
        out.failed += u64::from(!matches(&resp, &expect[(conn.offset + k) % IMAGES]));
        in_flight -= 1;
        if !stop.load(Ordering::Relaxed) {
            conn.send();
            in_flight += 1;
        }
    }
}

/// Cut the window into [`SLICE`]s: per slice, the median latency over
/// every connection's responses and the rate they arrived at. Only
/// slices that lie wholly inside the window count.
fn slices(clients: &[ClientStats], window: Duration) -> Vec<Slice> {
    let whole = (window.as_nanos() / SLICE.as_nanos()) as usize;
    let mut lat = Vec::new();
    let mut out = Vec::with_capacity(whole);
    for s in 0..whole {
        lat.clear();
        for c in clients {
            // A slice this connection saw no response in (or after) is empty.
            let at = |i: usize| {
                c.slice_starts
                    .get(i)
                    .map_or(c.samples.len(), |&x| x as usize)
            };
            lat.extend(c.samples.ms(at(s)..at(s + 1)));
        }
        if !lat.is_empty() {
            let ms = stats::median(&lat);
            out.push(Slice {
                ms,
                items_per_s: lat.len() as f64 / SLICE.as_secs_f64(),
            });
        }
    }
    out
}

impl LenetServe {
    pub fn setup(seed: u64) -> Self {
        let conns = host::nproc();
        let data = synthetic_digits(IMAGES, SIZE, CLASSES, seed ^ 0x5e7e);
        let images: Vec<Vec<f32>> = (0..IMAGES).map(|i| data.images.image(i).to_vec()).collect();
        // Reference: the same network's forward pass, computed locally.
        let local = net(seed).forward(&data.images);
        let expect: Vec<Vec<f32>> = (0..IMAGES).map(|i| local.image(i).to_vec()).collect();

        // Admission must never bite: a shed request is a failed one.
        let policy =
            BatchPolicy::new(MAX_BATCH, MAX_DELAY).with_queue_cap(conns * DEPTH + 4 * MAX_BATCH);
        let server = Server::start(ServeConfig::loopback(1, policy, (1, SIZE, SIZE)), |_| {
            net(seed)
        })
        .expect("bind loopback server");
        let clients = (0..conns)
            .map(|_| Client::connect(server.local_addr()).expect("connect to loopback server"))
            .collect();
        let mut w = LenetServe {
            seed,
            clients,
            server,
            images,
            expect,
        };
        for _ in 0..WARMUP_ITERS {
            let warm = w.drive(Duration::ZERO, &mut Calibrator::off(), None);
            assert_eq!(
                warm.failed, 0,
                "warm-up response differs from the local forward pass"
            );
        }
        w
    }

    /// Run every connection's loop on its own thread for `window`.
    fn drive(
        &mut self,
        window: Duration,
        calib: &mut Calibrator,
        mut recs: Option<&mut Vec<Recorder>>,
    ) -> RunStats {
        let stop = AtomicBool::new(false);
        let (images, expect) = (&self.images, &self.expect);
        let mut per_client: Vec<ClientStats> = self
            .clients
            .iter()
            .map(|_| ClientStats::new(window))
            .collect();
        let start = Instant::now();
        std::thread::scope(|s| {
            let mut rec_iter = recs.as_mut().map(|r| r.iter_mut());
            let handles: Vec<_> = self
                .clients
                .iter_mut()
                .zip(&mut per_client)
                .enumerate()
                .map(|(c, (client, out))| {
                    let conn = Conn {
                        client,
                        images,
                        offset: c * DEPTH,
                        rec: rec_iter.as_mut().and_then(Iterator::next),
                        sent_at: [start; DEPTH],
                        first_id: None,
                        sent: 0,
                    };
                    let stop = &stop;
                    s.spawn(move || client_loop(conn, expect, stop, start, out))
                })
                .collect();
            // The driver thread is otherwise idle for the window.
            calib.tick_for(window);
            stop.store(true, Ordering::Relaxed);
            for h in handles {
                h.join().expect("client thread panicked");
            }
        });
        let mut stats = RunStats {
            elapsed_s: start.elapsed().as_secs_f64(),
            slices: slices(&per_client, window),
            ..RunStats::default()
        };
        for c in per_client {
            stats.attempted += c.attempted;
            stats.failed += c.failed;
            stats.samples.push(c.samples);
        }
        stats.iterations = stats.attempted;
        stats
    }
}

/// Median time of `body` over `reps` calls of `inner` operations each,
/// nanoseconds per operation.
fn ns_per_op(reps: usize, inner: usize, mut body: impl FnMut()) -> f64 {
    let per_call: Vec<f64> = (0..reps)
        .map(|_| {
            let t0 = Instant::now();
            body();
            t0.elapsed().as_nanos() as f64 / inner as f64
        })
        .collect();
    stats::median(&per_call)
}

/// Cost of the wire codec alone: one request and one response through
/// all four codec functions on an in-memory buffer.
fn codec_ns_per_frame(pixels: &[f32], logits: &[f32]) -> f64 {
    const FRAMES: usize = 256;
    let req = Request {
        id: 1,
        c: 1,
        h: SIZE as u16,
        w: SIZE as u16,
        pixels: pixels.to_vec(),
    };
    let resp = Response {
        id: 1,
        status: Status::Ok,
        values: logits.to_vec(),
    };
    let mut buf = Vec::with_capacity(FRAMES * (pixels.len() * 4 + 64));
    ns_per_op(21, 4 * FRAMES, || {
        buf.clear();
        for _ in 0..FRAMES {
            write_request(&mut buf, &req).expect("encode request");
            write_response(&mut buf, &resp).expect("encode response");
        }
        let mut r = buf.as_slice();
        for _ in 0..FRAMES {
            black_box(read_request(&mut r).expect("decode request"));
            black_box(read_response(&mut r).expect("decode response"));
        }
    })
}

/// Cost of the batching state machine alone, in virtual time: offers
/// one tick apart, a pop whenever a batch is ready.
fn batcher_ns_per_offer() -> f64 {
    const OFFERS: usize = 4096;
    let policy = BatchPolicy::new(MAX_BATCH, MAX_DELAY).with_queue_cap(4 * MAX_BATCH);
    let origin = Instant::now();
    let mut out = Vec::with_capacity(MAX_BATCH);
    ns_per_op(21, OFFERS, || {
        let mut b: Batcher<u64> = Batcher::new(policy);
        for i in 0..OFFERS {
            let now = origin + Duration::from_micros(100 * i as u64);
            b.offer(i as u64, now).expect("queue below its cap");
            if b.ready(now) {
                black_box(b.pop_batch_into(&mut out));
            }
        }
    })
}

impl Workload for LenetServe {
    fn item(&self) -> &'static str {
        "request"
    }

    fn run(&mut self, window: Duration, calib: &mut Calibrator) -> RunStats {
        self.drive(window, calib, None)
    }

    fn run_traced(&mut self, window: Duration, ctx: &mut TraceCtx<'_>) -> RunStats {
        let origin = Instant::now();
        let mut recs: Vec<Recorder> = (0..self.clients.len())
            .map(|c| Recorder::new(CLIENT_SPANS, origin, 1 + c as u32))
            .collect();
        let before = self.server.stats();
        let run = self.drive(window, &mut Calibrator::off(), Some(&mut recs));
        let after = self.server.stats();
        ctx.side.append(&mut recs);

        let batches = (after.batches - before.batches).max(1);
        let mean_batch = (after.completed - before.completed) as f64 / batches as f64;
        ctx.metrics.set("serve.mean_batch", mean_batch);
        ctx.metrics
            .set("serve.shed", (after.shed - before.shed) as f64);

        let mut lat = run.samples_ms();
        let summary = stats::summarize(&mut lat);
        ctx.metrics
            .set("serve.latency_p99_ms", stats::percentile_sorted(&lat, 0.99));

        // What the same model costs without the server around it: a
        // local `infer_ws` of a mean-sized batch.
        let b = (mean_batch.round() as usize).clamp(1, MAX_BATCH);
        let local = net(self.seed);
        let mut ws = Workspace::new();
        let mut input = Tensor4::zeros(Shape4::new(b, 1, SIZE, SIZE));
        for i in 0..b {
            input.image_mut(i).copy_from_slice(&self.images[i]);
        }
        let infer_ms = ns_per_op(51, 1, || {
            black_box(local.infer_ws(&input, &mut ws));
        }) / 1e6;
        ctx.metrics.set("serve.overhead_ms", summary.p50 - infer_ms);
        ctx.metrics.set(
            "serve.codec_ns_per_frame",
            codec_ns_per_frame(&self.images[0], &self.expect[0]),
        );
        ctx.metrics
            .set("serve.batcher_ns_per_offer", batcher_ns_per_offer());
        run
    }
}
