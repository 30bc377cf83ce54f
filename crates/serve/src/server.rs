//! The TCP inference server.
//!
//! No async runtime and no epoll: the workspace's zero-dependency bias
//! means plain blocking sockets and threads, which at serving batch
//! sizes is not the bottleneck — one reader thread per connection does
//! nothing but parse frames and push jobs, and all real work happens on
//! the fixed worker pool. The moving parts:
//!
//! * **accept loop** (1 thread) — accepts connections until shutdown.
//! * **connection reader** (1/conn) — parses request frames, validates
//!   the image shape, and offers jobs to the shared [`Batcher`] under
//!   the `serve.enqueue` span. Shape mismatches and load-sheds are
//!   answered immediately without touching the queue's latency budget.
//! * **connection writer** (1/conn) — serializes responses from an
//!   mpsc channel; workers and the reader both hold senders, so frames
//!   from different batches never interleave mid-frame.
//! * **worker** (configurable) — owns its `Network`, its arena-backed
//!   [`Workspace`] and a per-batch-size tensor cache, so steady-state
//!   serving allocates nothing in the conv/GEMM/FFT hot paths and the
//!   first batch of each size warms every cache below it. Workers pop
//!   ready batches (`serve.batch_form`), run inference
//!   (`serve.infer`) and hand responses to the connection writers.
//!
//! [`Server::shutdown`] drains: admission flips to load-shed, workers
//! finish everything already admitted (popping partial batches without
//! waiting out the delay budget), and only then do the threads join —
//! an in-flight request never sees a dropped channel.

use std::io::{BufReader, BufWriter};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use gcnn_models::Network;
use gcnn_tensor::{Shape4, Tensor4, Workspace};

use crate::batcher::{BatchPolicy, Batcher};
use crate::metrics::{ServeMetrics, ServeStats};
use crate::protocol::{read_request, write_response, Response, Status, WireError};

/// Server configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address; use port 0 to let the OS pick (tests, benches).
    pub addr: String,
    /// Worker threads; each owns one `Network` replica.
    pub workers: usize,
    /// Batching and admission policy.
    pub policy: BatchPolicy,
    /// The `(c, h, w)` image shape every request must carry.
    pub input: (usize, usize, usize),
}

impl ServeConfig {
    /// Loopback server on an OS-assigned port.
    pub fn loopback(workers: usize, policy: BatchPolicy, input: (usize, usize, usize)) -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            workers,
            policy,
            input,
        }
    }
}

/// One admitted request, queued for a worker.
struct Job {
    id: u64,
    pixels: Vec<f32>,
    enqueued: Instant,
    reply: mpsc::Sender<Response>,
}

/// State shared by readers, workers and the accept loop.
struct Shared {
    batcher: Mutex<Batcher<Job>>,
    /// Signaled on every offer and at shutdown.
    available: Condvar,
    metrics: ServeMetrics,
    /// Set under the batcher lock; once true, admission sheds and
    /// workers exit as soon as the queue is drained.
    stop: AtomicBool,
    input: (usize, usize, usize),
}

/// A running inference server. Dropping it shuts it down (draining
/// admitted requests); call [`Server::shutdown`] to do so explicitly.
pub struct Server {
    shared: Arc<Shared>,
    addr: SocketAddr,
    accept: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl Server {
    /// Bind and start serving. `factory(i)` builds worker `i`'s network
    /// replica on the caller's thread (so it may borrow freely); the
    /// replicas are then moved into the worker threads, which is why
    /// `Network: Send` is a tested invariant of `gcnn-models`.
    pub fn start(
        cfg: ServeConfig,
        mut factory: impl FnMut(usize) -> Network,
    ) -> std::io::Result<Server> {
        assert!(cfg.workers > 0, "Server::start: need at least one worker");
        let (c, h, w) = cfg.input;
        assert!(
            c > 0
                && h > 0
                && w > 0
                && c <= u16::MAX as usize
                && h <= u16::MAX as usize
                && w <= u16::MAX as usize,
            "Server::start: input dims must fit the wire protocol's u16 fields"
        );
        let listener = TcpListener::bind(&cfg.addr)?;
        let addr = listener.local_addr()?;
        let shared = Arc::new(Shared {
            batcher: Mutex::new(Batcher::new(cfg.policy)),
            available: Condvar::new(),
            metrics: ServeMetrics::new(),
            stop: AtomicBool::new(false),
            input: cfg.input,
        });

        // Build every replica on the caller's thread before any worker
        // spawns.
        let nets: Vec<Network> = (0..cfg.workers).map(&mut factory).collect();

        let workers = nets
            .into_iter()
            .enumerate()
            .map(|(i, net)| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("gcnn-serve-worker-{i}"))
                    .spawn(move || worker_loop(&shared, &net))
                    .expect("spawn worker thread")
            })
            .collect();

        let accept = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("gcnn-serve-accept".to_string())
                .spawn(move || accept_loop(&listener, &shared))
                .expect("spawn accept thread")
        };

        Ok(Server {
            shared,
            addr,
            accept: Some(accept),
            workers,
        })
    }

    /// The bound address (with the OS-assigned port resolved).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Current metrics aggregate.
    pub fn stats(&self) -> ServeStats {
        self.shared.metrics.snapshot()
    }

    /// Stop accepting, drain every admitted request, join all threads.
    pub fn shutdown(mut self) {
        self.shutdown_in_place();
    }

    fn shutdown_in_place(&mut self) {
        {
            // Set under the lock: a worker deciding whether to sleep
            // either sees `stop` or is already waiting when the
            // notify_all below lands — no missed-wakeup window.
            let _guard = self.shared.batcher.lock().expect("batcher poisoned");
            self.shared.stop.store(true, Ordering::SeqCst);
        }
        self.shared.available.notify_all();
        // Unblock the accept loop with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if self.accept.is_some() || !self.workers.is_empty() {
            self.shutdown_in_place();
        }
    }
}

fn accept_loop(listener: &TcpListener, shared: &Arc<Shared>) {
    loop {
        let stream = match listener.accept() {
            Ok((stream, _)) => stream,
            Err(_) => {
                if shared.stop.load(Ordering::SeqCst) {
                    return;
                }
                continue;
            }
        };
        if shared.stop.load(Ordering::SeqCst) {
            return; // the shutdown wake-up connection, or a late client
        }
        let shared = Arc::clone(shared);
        // Reader threads are not joined at shutdown: they exit when
        // their client closes, and everything they can still do once
        // `stop` is set is answer with load-sheds.
        let _ = std::thread::Builder::new()
            .name("gcnn-serve-conn".to_string())
            .spawn(move || connection_loop(stream, &shared));
    }
}

/// Per-connection reader: parse frames, validate, enqueue.
fn connection_loop(stream: TcpStream, shared: &Arc<Shared>) {
    stream.set_nodelay(true).ok();
    let peer_writer = match stream.try_clone() {
        Ok(clone) => clone,
        Err(_) => return,
    };
    let (tx, rx) = mpsc::channel::<Response>();
    let writer = std::thread::Builder::new()
        .name("gcnn-serve-conn-writer".to_string())
        .spawn(move || {
            let mut out = BufWriter::new(peer_writer);
            // Ends when every sender (reader + queued jobs) is dropped.
            while let Ok(resp) = rx.recv() {
                if write_response(&mut out, &resp).is_err() {
                    return;
                }
                use std::io::Write;
                if out.flush().is_err() {
                    return;
                }
            }
        })
        .expect("spawn connection writer");

    let mut reader = BufReader::new(stream);
    loop {
        let req = match read_request(&mut reader) {
            Ok(Some(req)) => req,
            Ok(None) => break, // clean close
            Err(WireError::Io(_)) => break,
            Err(_) => {
                // Structurally broken frame: the stream offset is no
                // longer trustworthy, so answer and hang up.
                let _ = tx.send(Response {
                    id: 0,
                    status: Status::BadRequest,
                    values: Vec::new(),
                });
                shared.metrics.record_bad_request();
                break;
            }
        };
        let dims = (req.c as usize, req.h as usize, req.w as usize);
        if dims != shared.input {
            shared.metrics.record_bad_request();
            let _ = tx.send(Response {
                id: req.id,
                status: Status::BadRequest,
                values: Vec::new(),
            });
            continue;
        }
        let _span = gcnn_trace::span("serve.enqueue");
        let job = Job {
            id: req.id,
            pixels: req.pixels,
            enqueued: Instant::now(),
            reply: tx.clone(),
        };
        let admitted = {
            let mut batcher = shared.batcher.lock().expect("batcher poisoned");
            if shared.stop.load(Ordering::SeqCst) {
                Err(job)
            } else {
                let now = job.enqueued;
                let result = batcher.offer(job, now);
                if result.is_ok() {
                    shared.metrics.record_enqueue(batcher.len());
                }
                result
            }
        };
        match admitted {
            Ok(()) => shared.available.notify_one(),
            Err(job) => {
                shared.metrics.record_shed();
                let _ = tx.send(Response {
                    id: job.id,
                    status: Status::Shed,
                    values: Vec::new(),
                });
            }
        }
    }
    drop(tx);
    let _ = writer.join();
}

/// How long an idle worker sleeps between shutdown checks; a fresh
/// offer's notify wakes it immediately, this only bounds staleness.
const IDLE_TICK: Duration = Duration::from_millis(50);

fn worker_loop(shared: &Arc<Shared>, net: &Network) {
    let (c, h, w) = shared.input;
    let max_batch = {
        let batcher = shared.batcher.lock().expect("batcher poisoned");
        batcher.policy().max_batch
    };
    let mut ws = Workspace::new();
    let mut batch: Vec<(Job, Instant)> = Vec::with_capacity(max_batch);
    // One input tensor per batch size, built on first use: a steady
    // stream of full batches touches exactly one and never reallocates.
    let mut inputs: Vec<Option<Tensor4>> = (0..=max_batch).map(|_| None).collect();

    loop {
        // Pop a batch, or sleep until one can become ready.
        {
            let mut batcher = shared.batcher.lock().expect("batcher poisoned");
            loop {
                let now = Instant::now();
                let stopping = shared.stop.load(Ordering::SeqCst);
                if batcher.ready(now) || (stopping && !batcher.is_empty()) {
                    batcher.pop_batch_into(&mut batch);
                    break;
                }
                if stopping {
                    return; // drained
                }
                let timeout = match batcher.oldest_deadline() {
                    Some(deadline) => deadline.saturating_duration_since(now),
                    None => IDLE_TICK,
                };
                let (guard, _) = shared
                    .available
                    .wait_timeout(batcher, timeout)
                    .expect("batcher poisoned");
                batcher = guard;
            }
        }
        if batch.is_empty() {
            continue;
        }

        let b = batch.len();
        let logits = {
            let _form = gcnn_trace::span("serve.batch_form");
            shared.metrics.record_batch(b);
            let tensor = inputs[b].get_or_insert_with(|| Tensor4::zeros(Shape4::new(b, c, h, w)));
            for (i, (job, _)) in batch.iter().enumerate() {
                tensor.image_mut(i).copy_from_slice(&job.pixels);
            }
            drop(_form);
            let _infer = gcnn_trace::span("serve.infer");
            net.infer_ws(inputs[b].as_ref().expect("just inserted"), &mut ws)
        };

        send_responses(&batch, &logits, &shared.metrics);
        batch.clear();
    }
}

/// Marshal one inference batch back to the per-connection reply
/// channels and record completion latencies.
// AUDIT: cold-path — `Response` owns its logits (they cross a channel to
// the connection thread and outlive the shared batch tensor), so one
// copy per response is inherent to the wire protocol, not a leak of the
// zero-alloc inference path.
fn send_responses(batch: &[(Job, Instant)], logits: &Tensor4, metrics: &ServeMetrics) {
    let out_len = logits.shape().image_len();
    let done = Instant::now();
    for (i, (job, _)) in batch.iter().enumerate() {
        let values = logits.image(i)[..out_len].to_vec();
        metrics.record_completion(done.duration_since(job.enqueued).as_secs_f64() * 1e3);
        let _ = job.reply.send(Response {
            id: job.id,
            status: Status::Ok,
            values,
        });
    }
}
