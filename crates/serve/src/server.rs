//! The daemon: admission queue, batcher, connection threads.

use mpress::CancelToken;
use mpress_api::{
    decode_request_line, encode_request_line, encode_response_line, execute, ApiContext, Request,
    Response, ServeError,
};
use mpress_obs::MetricsRecorder;
use serde::Serialize as _;
use serde_json::Value;
use std::collections::VecDeque;
use std::io::{BufRead, BufReader, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::thread;

/// Daemon configuration, with builder-style setters.
///
/// `#[non_exhaustive]`: construct with [`ServeConfig::default`] and
/// chain overrides, so new knobs can be added compatibly.
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct ServeConfig {
    addr: String,
    queue_cap: usize,
    batch_cap: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".to_owned(),
            queue_cap: 64,
            batch_cap: 8,
        }
    }
}

impl ServeConfig {
    /// Sets the listen address (default `127.0.0.1:0`, an ephemeral
    /// port — read the bound address from [`ServerHandle::addr`]).
    pub fn addr(mut self, addr: impl Into<String>) -> Self {
        self.addr = addr.into();
        self
    }

    /// Sets the admission-queue capacity (default 64). Requests
    /// arriving while the queue holds this many are rejected with
    /// [`ServeError::Overloaded`]. A capacity of zero rejects every
    /// plannable request — useful for testing admission control.
    pub fn queue_cap(mut self, cap: usize) -> Self {
        self.queue_cap = cap;
        self
    }

    /// Sets the maximum requests drained into one batch wave
    /// (default 8, minimum 1).
    pub fn batch_cap(mut self, cap: usize) -> Self {
        self.batch_cap = cap.max(1);
        self
    }
}

/// One admitted request waiting for its batch wave.
struct Job {
    id: u64,
    /// Canonical request encoding (id-independent), the in-wave dedup
    /// key.
    key: String,
    request: Request,
    reply: mpsc::Sender<String>,
}

/// State shared by the accept loop, the batcher and every connection.
struct Shared {
    ctx: ApiContext,
    cancel: CancelToken,
    queue: Mutex<VecDeque<Job>>,
    ready: Condvar,
    stop: AtomicBool,
    metrics: Mutex<MetricsRecorder>,
    queue_cap: usize,
    batch_cap: usize,
    addr: SocketAddr,
}

impl Shared {
    fn record(&self, f: impl FnOnce(&mut MetricsRecorder)) {
        f(&mut self.metrics.lock().expect("metrics lock"));
    }
}

/// A running daemon. Dropping the handle shuts the daemon down.
pub struct ServerHandle {
    shared: Arc<Shared>,
    accept: Option<thread::JoinHandle<()>>,
    batcher: Option<thread::JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound listen address (resolves ephemeral ports).
    pub fn addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// Blocks until the daemon stops on its own — i.e. until a client
    /// sends a `shutdown` request. Does not trigger a shutdown itself.
    pub fn wait(&mut self) {
        if let Some(t) = self.accept.take() {
            let _ = t.join();
        }
        if let Some(t) = self.batcher.take() {
            let _ = t.join();
        }
    }

    /// Triggers a graceful shutdown and waits for the accept loop and
    /// the batcher to finish. In-flight planning is cancelled through
    /// the context's [`CancelToken`]; still-queued requests are
    /// answered with an internal error.
    pub fn shutdown(&mut self) {
        trigger_shutdown(&self.shared);
        if let Some(t) = self.accept.take() {
            let _ = t.join();
        }
        if let Some(t) = self.batcher.take() {
            let _ = t.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.shutdown();
    }
}

impl std::fmt::Debug for ServerHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServerHandle")
            .field("addr", &self.shared.addr)
            .finish_non_exhaustive()
    }
}

/// Starts the daemon.
///
/// # Errors
///
/// Propagates socket bind failures.
pub fn start(config: ServeConfig) -> std::io::Result<ServerHandle> {
    let listener = TcpListener::bind(&config.addr)?;
    let addr = listener.local_addr()?;
    let cancel = CancelToken::new();
    let shared = Arc::new(Shared {
        ctx: ApiContext::new().with_cancel(cancel.clone()),
        cancel,
        queue: Mutex::new(VecDeque::new()),
        ready: Condvar::new(),
        stop: AtomicBool::new(false),
        metrics: Mutex::new(MetricsRecorder::new()),
        queue_cap: config.queue_cap,
        batch_cap: config.batch_cap,
        addr,
    });
    let batcher = {
        let shared = Arc::clone(&shared);
        thread::spawn(move || run_batcher(&shared))
    };
    let accept = {
        let shared = Arc::clone(&shared);
        thread::spawn(move || {
            for stream in listener.incoming() {
                if shared.stop.load(Ordering::SeqCst) {
                    break;
                }
                let Ok(stream) = stream else { continue };
                let shared = Arc::clone(&shared);
                thread::spawn(move || handle_connection(&shared, stream));
            }
        })
    };
    Ok(ServerHandle {
        shared,
        accept: Some(accept),
        batcher: Some(batcher),
    })
}

/// Flips the stop flag once, cancels in-flight planning, wakes the
/// batcher, and unblocks the accept loop with a self-connection.
fn trigger_shutdown(shared: &Shared) {
    if shared.stop.swap(true, Ordering::SeqCst) {
        return;
    }
    shared.cancel.cancel();
    shared.ready.notify_all();
    let _ = TcpStream::connect(shared.addr);
}

/// The single batch thread: drain → dedup → one `par_map` wave → route
/// responses by id. Waves run sequentially, which (together with the
/// plan cache) is what makes identical requests byte-identical no
/// matter how they interleave across clients.
fn run_batcher(shared: &Shared) {
    loop {
        let mut batch: Vec<Job> = Vec::new();
        {
            let mut q = shared.queue.lock().expect("queue lock");
            while q.is_empty() && !shared.stop.load(Ordering::SeqCst) {
                q = shared.ready.wait(q).expect("queue wait");
            }
            if shared.stop.load(Ordering::SeqCst) {
                batch.extend(q.drain(..));
                drop(q);
                for job in batch {
                    let err = Err(ServeError::Internal(
                        "server shut down before this request ran".to_owned(),
                    ));
                    let _ = job.reply.send(encode_response_line(job.id, &err));
                }
                return;
            }
            while batch.len() < shared.batch_cap {
                match q.pop_front() {
                    Some(job) => batch.push(job),
                    None => break,
                }
            }
        }
        // In-wave dedup: identical canonical encodings run once.
        let mut uniques: Vec<(String, Request)> = Vec::new();
        let mut slots: Vec<usize> = Vec::with_capacity(batch.len());
        for job in &batch {
            match uniques.iter().position(|(key, _)| *key == job.key) {
                Some(i) => slots.push(i),
                None => {
                    uniques.push((job.key.clone(), job.request.clone()));
                    slots.push(uniques.len() - 1);
                }
            }
        }
        let dedup_hits = (batch.len() - uniques.len()) as u64;
        let results = mpress_par::par_map(&uniques, |(_, req)| execute(req, &shared.ctx));
        shared.record(|m| {
            m.inc("serve.batches");
            m.observe("serve.batch_size", batch.len() as f64);
            m.add("serve.dedup_hits", dedup_hits);
        });
        for (job, slot) in batch.into_iter().zip(slots) {
            let _ = job.reply.send(encode_response_line(job.id, &results[slot]));
        }
    }
}

/// The `stats` response body: service counters plus cache statistics.
fn stats_body(shared: &Shared) -> Value {
    let depth = shared.queue.lock().expect("queue lock").len();
    let mut m = shared.metrics.lock().expect("metrics lock");
    m.set_gauge("serve.queue_depth", depth as f64);
    m.set_gauge("serve.arenas_idle", shared.ctx.arenas.idle() as f64);
    let service = m.snapshot().to_json();
    drop(m);
    Value::Object(vec![
        ("service".to_owned(), service),
        ("cache".to_owned(), shared.ctx.cache.stats().to_json()),
    ])
}

/// One connection: a reader loop on this thread plus a writer thread
/// fed over a channel (the batcher routes responses into the same
/// channel, so writes never interleave mid-line).
fn handle_connection(shared: &Shared, stream: TcpStream) {
    // Each response goes out as one write; with Nagle's algorithm on, a
    // line could sit behind the peer's delayed ACK for up to 40 ms.
    let _ = stream.set_nodelay(true);
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let reader = BufReader::new(read_half);
    let (tx, rx) = mpsc::channel::<String>();
    let writer = thread::spawn(move || {
        let mut stream = stream;
        for mut line in rx {
            line.push('\n');
            if stream.write_all(line.as_bytes()).is_err() {
                break;
            }
            let _ = stream.flush();
        }
        let _ = stream.shutdown(Shutdown::Both);
    });
    for line in reader.lines() {
        let Ok(line) = line else { break };
        if line.trim().is_empty() {
            continue;
        }
        let (id, decoded) = decode_request_line(&line);
        match decoded {
            Err(e) => {
                shared.record(|m| m.inc(&format!("serve.request_errors.{}", e.code())));
                let _ = tx.send(encode_response_line(id, &Err(e)));
            }
            Ok(Request::Stats) => {
                shared.record(|m| m.inc("serve.requests.stats"));
                let body = stats_body(shared);
                let _ = tx.send(encode_response_line(id, &Ok(Response::Stats(body))));
            }
            Ok(Request::Shutdown) => {
                shared.record(|m| m.inc("serve.requests.shutdown"));
                let _ = tx.send(encode_response_line(id, &Ok(Response::Shutdown)));
                trigger_shutdown(shared);
                break;
            }
            Ok(request) => {
                shared.record(|m| m.inc(&format!("serve.requests.{}", request.kind())));
                let verdict = {
                    let mut q = shared.queue.lock().expect("queue lock");
                    if shared.stop.load(Ordering::SeqCst) {
                        Some(ServeError::Internal("server is shutting down".to_owned()))
                    } else if q.len() >= shared.queue_cap {
                        Some(ServeError::Overloaded {
                            queue: shared.queue_cap,
                        })
                    } else {
                        q.push_back(Job {
                            id,
                            // Re-encode with a fixed id so identical
                            // requests dedup regardless of client ids.
                            key: encode_request_line(0, &request),
                            request,
                            reply: tx.clone(),
                        });
                        shared.ready.notify_one();
                        None
                    }
                };
                if let Some(e) = verdict {
                    shared.record(|m| m.inc(&format!("serve.rejected.{}", e.code())));
                    let _ = tx.send(encode_response_line(id, &Err(e)));
                }
            }
        }
    }
    drop(tx);
    let _ = writer.join();
}
