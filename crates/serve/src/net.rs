//! Transport front-ends: TCP and Unix-domain sockets.
//!
//! Both run one accept loop over a small `Listener` trait and answer
//! each request line through `Service::respond`: one `write_all` per
//! response, with `TCP_NODELAY` set so Nagle never holds it back. The
//! loop blocks in `accept`. On `SIGTERM`/`SIGINT` or an in-band
//! `shutdown` request, [`run_server`] connects to each listener once to
//! wake it; the loop sees the stop flag, and the daemon drains in-flight
//! work under the configured deadline and exits 0.
//!
//! Two caps bound what clients can make the daemon hold. At most
//! `workers + queue_cap` connections are served at once; one more gets a
//! single `PAS0504` shed line and is closed. A connection may buffer at
//! most [`MAX_REQUEST_BYTES`] without a newline; past that it gets a
//! single `PAS0509` line and is closed.

use crate::service::{ServeConfig, Service};
use pas_obs::log;
use serde::Value;
use std::io::ErrorKind::{Interrupted, TimedOut, WouldBlock};
use std::io::{Read, Write};
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Bytes a connection may hold without a newline before it is answered
/// `PAS0509` and closed: far above an inline 3,000-task graph, and never
/// preallocated.
pub const MAX_REQUEST_BYTES: usize = 8 << 20;

/// Bytes taken from the socket per read.
const READ_CHUNK: usize = 4096;

/// How long a connection's read blocks before re-checking the stop flag.
const READ_POLL: Duration = Duration::from_millis(100);

/// Where the daemon listens. At least one endpoint must be set.
#[derive(Debug, Clone, Default)]
pub struct Endpoints {
    /// TCP listen address, e.g. `127.0.0.1:7453`.
    pub tcp: Option<String>,
    /// Unix-domain socket path (Unix only).
    pub unix: Option<String>,
}

static TERM_REQUESTED: AtomicBool = AtomicBool::new(false);

extern "C" fn on_term_signal(_sig: i32) {
    TERM_REQUESTED.store(true, Ordering::SeqCst);
}

/// Installs `SIGTERM`/`SIGINT` handlers that flip the drain flag. Uses
/// libc's `signal(2)` directly (std already links it on Unix); a no-op
/// elsewhere.
pub fn install_signal_handlers() {
    #[cfg(unix)]
    {
        // SAFETY: `signal` is async-signal-safe to install, and the
        // handler only stores to an atomic (async-signal-safe).
        extern "C" {
            fn signal(signum: i32, handler: usize) -> usize;
        }
        const SIGINT: i32 = 2;
        const SIGTERM: i32 = 15;
        unsafe {
            signal(SIGTERM, on_term_signal as *const () as usize);
            signal(SIGINT, on_term_signal as *const () as usize);
        }
    }
}

/// True once a termination signal arrived (test hook: resettable).
pub fn term_requested() -> bool {
    TERM_REQUESTED.load(Ordering::SeqCst)
}

/// What the accept loops and connection threads share.
struct Daemon {
    svc: Service,
    /// Connections being served now.
    open: AtomicUsize,
}

impl Daemon {
    fn start(cfg: ServeConfig) -> Arc<Daemon> {
        let svc = Service::start(cfg);
        Arc::new(Daemon {
            svc,
            open: AtomicUsize::new(0),
        })
    }

    fn should_stop(&self) -> bool {
        term_requested() || self.svc.is_shutdown_requested()
    }
}

/// One admitted connection's place under the connection cap, given back
/// when the connection's thread ends.
struct ConnSlot(Arc<Daemon>);

impl Drop for ConnSlot {
    fn drop(&mut self) {
        self.0.open.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Serves one connection: newline-delimited requests in, one response
/// line per request out. Short read timeouts keep the loop responsive
/// to shutdown.
fn serve_conn<S: Read + Write>(mut stream: S, d: &Daemon) {
    let mut buf = Vec::new();
    let mut chunk = [0u8; READ_CHUNK];
    // `buf[..scanned]` holds no newline, so each byte is searched once.
    let mut scanned = 0;
    while !d.should_stop() {
        let n = match stream.read(&mut chunk) {
            Ok(0) => return, // peer closed
            Ok(n) => n,
            Err(e) if matches!(e.kind(), WouldBlock | TimedOut | Interrupted) => continue,
            Err(_) => return,
        };
        buf.extend_from_slice(&chunk[..n]);
        let mut start = 0;
        while let Some(i) = buf[scanned..].iter().position(|b| *b == b'\n') {
            let line = String::from_utf8_lossy(&buf[start..scanned + i]);
            let line = line.trim();
            if !line.is_empty() && d.svc.respond(line, &mut stream).is_err() {
                return;
            }
            scanned += i + 1;
            start = scanned;
        }
        buf.drain(..start);
        scanned = buf.len();
        if buf.len() > MAX_REQUEST_BYTES {
            let reject = d.svc.oversized_line(MAX_REQUEST_BYTES) + "\n";
            let _ = stream.write_all(reject.as_bytes());
            return;
        }
    }
}

/// A listening socket as the accept loop sees it: TCP and Unix listeners
/// differ only in these steps.
trait Listener: Send + Sync + 'static {
    /// An accepted connection.
    type Stream: Read + Write + Send + 'static;
    /// Blocks until a client connects.
    fn accept_conn(&self) -> std::io::Result<Self::Stream>;
    /// Socket options for an admitted connection, set before its first
    /// read.
    fn prepare(stream: &Self::Stream) -> std::io::Result<()>;
    /// Connects to this listener once, so a blocked
    /// [`accept_conn`](Listener::accept_conn) returns.
    fn wake(&self);
}

impl Listener for TcpListener {
    type Stream = TcpStream;

    fn accept_conn(&self) -> std::io::Result<TcpStream> {
        self.accept().map(|(stream, _)| stream)
    }

    fn prepare(stream: &TcpStream) -> std::io::Result<()> {
        // Without it, Nagle holds a response back until the client ACKs
        // the previous one, and clients delay that ACK by ~40 ms.
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(READ_POLL))
    }

    fn wake(&self) {
        if let Ok(mut addr) = self.local_addr() {
            if addr.ip().is_unspecified() {
                addr.set_ip(match addr.ip() {
                    IpAddr::V4(_) => IpAddr::V4(Ipv4Addr::LOCALHOST),
                    IpAddr::V6(_) => IpAddr::V6(Ipv6Addr::LOCALHOST),
                });
            }
            let _ = TcpStream::connect_timeout(&addr, Duration::from_secs(1));
        }
    }
}

#[cfg(unix)]
impl Listener for std::os::unix::net::UnixListener {
    type Stream = std::os::unix::net::UnixStream;

    fn accept_conn(&self) -> std::io::Result<Self::Stream> {
        self.accept().map(|(stream, _)| stream)
    }

    fn prepare(stream: &Self::Stream) -> std::io::Result<()> {
        stream.set_read_timeout(Some(READ_POLL))
    }

    fn wake(&self) {
        if let Some(path) = self
            .local_addr()
            .ok()
            .and_then(|a| a.as_pathname().map(std::path::Path::to_path_buf))
        {
            let _ = std::os::unix::net::UnixStream::connect(path);
        }
    }
}

/// The one accept loop. It blocks in `accept` and re-checks the stop
/// flag after every connection, the shutdown wake-up included. Each
/// admitted connection gets its own thread; one past the cap of
/// `workers + queue_cap` gets a single shed line and is closed. A failed
/// accept is retried at once: it costs only that connection, and the cap
/// keeps the daemon's own descriptors far below the process limit.
fn accept_loop<L: Listener>(listener: &L, d: &Arc<Daemon>) {
    let cap = d.svc.config().workers + d.svc.config().queue_cap;
    loop {
        let accepted = listener.accept_conn();
        if d.should_stop() {
            return;
        }
        let Ok(mut stream) = accepted else { continue };
        if d.open.fetch_add(1, Ordering::SeqCst) >= cap {
            d.open.fetch_sub(1, Ordering::SeqCst);
            let _ = stream.write_all((d.svc.shed_connection(cap) + "\n").as_bytes());
            continue;
        }
        let slot = ConnSlot(Arc::clone(d));
        if L::prepare(&stream).is_ok() {
            std::thread::spawn(move || serve_conn(stream, &slot.0));
        }
    }
}

/// A running accept loop and the call that wakes it for shutdown.
type AcceptThread = (JoinHandle<()>, Box<dyn Fn() + Send>);

fn spawn_accept<L: Listener>(listener: L, d: &Arc<Daemon>) -> AcceptThread {
    let listener = Arc::new(listener);
    let (l, d) = (Arc::clone(&listener), Arc::clone(d));
    let join = std::thread::spawn(move || accept_loop(&*l, &d));
    (join, Box::new(move || listener.wake()))
}

fn log_listening(transport: &str, addr: String) {
    log::emit(
        log::Level::Info,
        "serve.net",
        "listening",
        vec![
            ("transport", Value::Str(transport.to_string())),
            ("addr", Value::Str(addr)),
        ],
    );
}

/// Runs the daemon until a signal or in-band `shutdown` request, then
/// drains and returns a one-line summary. Errors are configuration
/// problems (nothing to listen on, bind failures).
pub fn run_server(cfg: ServeConfig, eps: &Endpoints) -> Result<String, String> {
    if eps.tcp.is_none() && eps.unix.is_none() {
        return Err("pas serve: no endpoint; give --listen, --socket or both".to_string());
    }
    #[cfg(not(unix))]
    if eps.unix.is_some() {
        return Err("pas serve: --socket is only supported on Unix".to_string());
    }
    let bind_err = |addr: &str, e: std::io::Error| format!("pas serve: binding {addr}: {e}");
    let tcp = match &eps.tcp {
        Some(addr) => Some(TcpListener::bind(addr).map_err(|e| bind_err(addr, e))?),
        None => None,
    };
    #[cfg(unix)]
    let unix = match &eps.unix {
        Some(path) => {
            let _ = std::fs::remove_file(path); // stale socket from a crash
            let listener = std::os::unix::net::UnixListener::bind(path);
            Some(listener.map_err(|e| bind_err(path, e))?)
        }
        None => None,
    };
    install_signal_handlers();
    let d = Daemon::start(cfg);
    let mut loops = Vec::new();
    if let (Some(listener), Some(addr)) = (tcp, &eps.tcp) {
        let local = listener.local_addr().map(|a| a.to_string());
        log_listening("tcp", local.unwrap_or_else(|_| addr.clone()));
        loops.push(spawn_accept(listener, &d));
    }
    #[cfg(unix)]
    if let (Some(listener), Some(path)) = (unix, &eps.unix) {
        log_listening("unix", path.clone());
        loops.push(spawn_accept(listener, &d));
    }

    while !term_requested() && !d.svc.is_shutdown_requested() {
        std::thread::sleep(Duration::from_millis(100));
    }
    for (_, wake) in &loops {
        wake();
    }
    for (join, _) in loops {
        let _ = join.join();
    }
    let svc = &d.svc;
    let abandoned = svc.shutdown();
    if let Some(path) = &eps.unix {
        let _ = std::fs::remove_file(path);
    }
    let summary = format!(
        "pas serve: drained; requests={} ok={} errors={} shed={} timeouts={} panics={} abandoned={}",
        svc.counter("serve.requests"),
        svc.counter("serve.responses.ok"),
        svc.counter("serve.responses.error"),
        svc.counter("serve.shed"),
        svc.counter("serve.timeouts"),
        svc.counter("serve.panics"),
        abandoned,
    );
    Ok(summary)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{BufRead, BufReader};
    use std::time::Instant;

    fn quick_cfg() -> ServeConfig {
        ServeConfig {
            workers: 2,
            queue_cap: 8,
            debug_faults: true,
            ..ServeConfig::default()
        }
    }

    /// A daemon with one accept loop on an ephemeral loopback TCP port.
    fn start_tcp(cfg: ServeConfig) -> (Arc<Daemon>, std::net::SocketAddr, AcceptThread) {
        let d = Daemon::start(cfg);
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let accept = spawn_accept(listener, &d);
        (d, addr, accept)
    }

    /// Stops the way `run_server` does: shutdown request, wake, join,
    /// drain.
    fn stop(d: &Daemon, (join, wake): AcceptThread) {
        d.svc.handle_line(r#"{"kind":"shutdown"}"#);
        wake();
        join.join().expect("accept loop exits");
        assert_eq!(d.svc.shutdown(), 0);
    }

    /// One client connection: line out, line in.
    struct Client<S: Read + Write> {
        reader: BufReader<S>,
        writer: S,
    }

    impl Client<TcpStream> {
        fn tcp(addr: std::net::SocketAddr) -> Self {
            let s = TcpStream::connect(addr).expect("connect");
            s.set_read_timeout(Some(Duration::from_secs(60)))
                .expect("timeout");
            Client {
                reader: BufReader::new(s.try_clone().expect("clone")),
                writer: s,
            }
        }
    }

    impl<S: Read + Write> Client<S> {
        fn send(&mut self, text: &str) {
            self.writer.write_all(text.as_bytes()).expect("write");
        }

        fn recv(&mut self) -> String {
            let mut line = String::new();
            self.reader.read_line(&mut line).expect("read");
            line
        }

        fn call(&mut self, line: &str) -> String {
            self.send(&format!("{line}\n"));
            self.recv()
        }
    }

    const STATUS: &str = r#"{"id":"s","kind":"status"}"#;

    fn median_ms(mut xs: Vec<f64>) -> f64 {
        xs.sort_by(f64::total_cmp);
        xs[xs.len() / 2]
    }

    #[test]
    fn tcp_round_trip_including_malformed_lines() {
        let (d, addr, accept) = start_tcp(quick_cfg());
        let mut c = Client::tcp(addr);
        c.send("{\"id\":\"a\",\"kind\":\"run\",\"workload\":\"synthetic\"}\nnot json\n");
        let l1 = c.recv();
        assert!(l1.contains("\"status\":\"ok\""), "{l1}");
        let l2 = c.recv();
        assert!(l2.contains("PAS0501"), "{l2}");
        stop(&d, accept);
    }

    #[test]
    fn kept_open_status_round_trips_do_not_stall() {
        let (d, addr, accept) = start_tcp(quick_cfg());
        let mut c = Client::tcp(addr);
        let rtts: Vec<f64> = (0..50)
            .map(|_| {
                let t = Instant::now();
                let resp = c.call(STATUS);
                assert!(resp.contains("\"status\":\"ok\""), "{resp}");
                t.elapsed().as_secs_f64() * 1e3
            })
            .collect();
        let p50 = median_ms(rtts);
        assert!(p50 < 10.0, "kept-open status p50 {p50:.2} ms");
        stop(&d, accept);
    }

    #[test]
    fn pipelined_status_lines_are_all_answered_promptly() {
        let (d, addr, accept) = start_tcp(quick_cfg());
        let mut c = Client::tcp(addr);
        let batch = format!("{STATUS}\n").repeat(4);
        let rtts: Vec<f64> = (0..10)
            .map(|_| {
                let t = Instant::now();
                c.send(&batch);
                for _ in 0..4 {
                    let resp = c.recv();
                    assert!(resp.contains("\"status\":\"ok\""), "{resp}");
                }
                t.elapsed().as_secs_f64() * 1e3
            })
            .collect();
        let p50 = median_ms(rtts);
        assert!(p50 < 10.0, "4 pipelined status p50 {p50:.2} ms");
        stop(&d, accept);
    }

    #[test]
    fn fresh_connections_answer_their_first_status_promptly() {
        let (d, addr, accept) = start_tcp(quick_cfg());
        let rtts: Vec<f64> = (0..10)
            .map(|_| {
                let t = Instant::now();
                let resp = Client::tcp(addr).call(STATUS);
                assert!(resp.contains("\"status\":\"ok\""), "{resp}");
                t.elapsed().as_secs_f64() * 1e3
            })
            .collect();
        let p50 = median_ms(rtts);
        assert!(p50 < 10.0, "fresh-connection status p50 {p50:.2} ms");
        stop(&d, accept);
    }

    #[test]
    fn socket_writes_land_in_the_write_stage_and_trace_file() {
        let dir = std::env::temp_dir().join(format!("pas-serve-write-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let (d, addr, accept) = start_tcp(ServeConfig {
            trace_dir: Some(dir.display().to_string()),
            ..quick_cfg()
        });
        let mut c = Client::tcp(addr);
        let resp = c.call(r#"{"id":"r","kind":"run","workload":"synthetic"}"#);
        assert!(resp.contains("\"status\":\"ok\""), "{resp}");
        let status = c.call(STATUS);
        let v: Value = serde_json::from_str(&status).expect("valid JSON");
        let count = |series: &str| {
            v.get("body")
                .and_then(|b| b.get("latency"))
                .and_then(|l| l.get(series))
                .and_then(|s| s.get("count"))
                .and_then(Value::as_u64)
        };
        assert_eq!(count("serve.latency.run.write"), Some(1), "{status}");
        assert_eq!(count("serve.latency.run.total"), Some(1), "{status}");
        // The trace file is written after the write, so it holds the span.
        let trace = std::fs::read_to_string(dir.join("r.trace.json")).expect("trace file");
        assert!(trace.contains("req.write"), "{trace}");
        stop(&d, accept);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn connections_past_workers_plus_queue_are_shed_and_closed() {
        let (d, addr, accept) = start_tcp(ServeConfig {
            workers: 1,
            queue_cap: 1,
            ..ServeConfig::default()
        });
        // Admitted once answered: the accept loop has counted them.
        let mut first = Client::tcp(addr);
        let mut second = Client::tcp(addr);
        assert!(first.call(STATUS).contains("\"status\":\"ok\""));
        assert!(second.call(STATUS).contains("\"status\":\"ok\""));

        let mut third = Client::tcp(addr);
        let shed = third.recv();
        let v: Value = serde_json::from_str(&shed).expect("valid JSON");
        assert_eq!(v.get("status").and_then(Value::as_str), Some("shed"));
        assert_eq!(v.get("code").and_then(Value::as_str), Some("PAS0504"));
        assert_eq!(v.get("retry_after_ms").and_then(Value::as_u64), Some(50));
        assert_eq!(third.recv(), "", "the shed connection is closed");

        assert!(first.call(STATUS).contains("\"status\":\"ok\""));
        assert!(second.call(STATUS).contains("\"status\":\"ok\""));
        assert_eq!(d.svc.counter("serve.shed"), 1);
        // A closed connection frees its slot for the next one.
        drop(first);
        let deadline = Instant::now() + Duration::from_secs(10);
        while d.open.load(Ordering::SeqCst) > 1 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert!(Client::tcp(addr).call(STATUS).contains("\"status\":\"ok\""));
        stop(&d, accept);
    }

    #[cfg(unix)]
    fn socket_path(tag: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("pas-serve-{tag}-{}.sock", std::process::id()))
    }

    #[cfg(unix)]
    #[test]
    fn unix_socket_round_trip() {
        use std::os::unix::net::{UnixListener, UnixStream};
        let path = socket_path("rt");
        let _ = std::fs::remove_file(&path);
        let d = Daemon::start(quick_cfg());
        let accept = spawn_accept(UnixListener::bind(&path).expect("bind"), &d);
        let s = UnixStream::connect(&path).expect("connect");
        let mut c = Client {
            reader: BufReader::new(s.try_clone().expect("clone")),
            writer: s,
        };
        let ok = c.call(r#"{"id":"u","kind":"run","workload":"synthetic"}"#);
        assert!(
            ok.contains("\"status\":\"ok\"") && ok.contains("\"id\":\"u\""),
            "{ok}"
        );
        assert!(c.call("not json").contains("PAS0501"));
        stop(&d, accept);
        let _ = std::fs::remove_file(&path);
    }

    #[cfg(unix)]
    #[test]
    fn run_server_returns_promptly_after_an_in_band_shutdown() {
        let path = socket_path("shutdown");
        let eps = Endpoints {
            tcp: Some("127.0.0.1:0".to_string()),
            unix: Some(path.display().to_string()),
        };
        let server = std::thread::spawn(move || run_server(quick_cfg(), &eps));
        let deadline = Instant::now() + Duration::from_secs(20);
        let s = loop {
            match std::os::unix::net::UnixStream::connect(&path) {
                Ok(s) => break s,
                Err(e) if Instant::now() > deadline => panic!("daemon never listened: {e}"),
                Err(_) => std::thread::sleep(Duration::from_millis(5)),
            }
        };
        let mut c = Client {
            reader: BufReader::new(s.try_clone().expect("clone")),
            writer: s,
        };
        let resp = c.call(r#"{"id":"x","kind":"shutdown"}"#);
        assert!(resp.contains("\"draining\":true"), "{resp}");
        let t = Instant::now();
        while !server.is_finished() {
            assert!(
                t.elapsed() < Duration::from_secs(1),
                "run_server still running"
            );
            std::thread::sleep(Duration::from_millis(5));
        }
        let summary = server.join().expect("no panic").expect("clean exit");
        assert!(summary.starts_with("pas serve: drained;"), "{summary}");
        assert!(!path.exists(), "socket file removed");
    }

    /// An in-memory connection: reads come from `input` at most `max_read`
    /// bytes at a time (an endless run of `x` when `input` is `None`);
    /// writes collect in `output`.
    struct MemStream {
        input: Option<std::io::Cursor<Vec<u8>>>,
        max_read: usize,
        read_total: usize,
        output: Vec<u8>,
    }

    impl Read for MemStream {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            let n = buf.len().min(self.max_read);
            let n = match &mut self.input {
                Some(input) => input.read(&mut buf[..n])?,
                // Gives up well past the cap, so a missing cap fails the
                // test instead of hanging it.
                None if self.read_total > 4 * MAX_REQUEST_BYTES => 0,
                None => {
                    buf[..n].fill(b'x');
                    n
                }
            };
            self.read_total += n;
            Ok(n)
        }
    }

    impl Write for MemStream {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.output.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    fn serve_mem(input: Option<&[u8]>, max_read: usize) -> MemStream {
        let d = Daemon::start(quick_cfg());
        let mut s = MemStream {
            input: input.map(|b| std::io::Cursor::new(b.to_vec())),
            max_read,
            read_total: 0,
            output: Vec::new(),
        };
        serve_conn(&mut s, &d);
        assert_eq!(d.svc.shutdown(), 0);
        s
    }

    #[test]
    fn a_newline_free_flood_gets_one_pas0509_and_a_bounded_buffer() {
        let s = serve_mem(None, usize::MAX);
        let out = String::from_utf8(s.output).expect("utf-8");
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 1, "{out}");
        assert!(lines[0].contains("\"code\":\"PAS0509\""), "{out}");
        assert!(
            s.read_total <= MAX_REQUEST_BYTES + READ_CHUNK,
            "buffered {} bytes",
            s.read_total
        );
    }

    #[test]
    fn framing_does_not_depend_on_read_sizes() {
        let input = concat!(
            "{\"id\":\"a\",\"kind\":\"run\",\"workload\":\"synthetic\",\"seed\":3}\n",
            "\n",
            "   \r\n",
            "not json\n",
            "{\"id\":\"b\",\"kind\":\"bogus\"}\n",
            "{\"kind\":\"check\",\"workload\":\"synthetic\"}\r\n",
            "{\"id\":\"tail\",\"kind\":\"run\"}"
        );
        let one_byte = serve_mem(Some(input.as_bytes()), 1).output;
        let one_read = serve_mem(Some(input.as_bytes()), usize::MAX).output;
        let out = String::from_utf8(one_byte.clone()).expect("utf-8");
        assert_eq!(out.lines().count(), 4, "{out}");
        assert!(out.contains("PAS0501") && out.contains("PAS0502"), "{out}");
        assert!(
            !out.contains("\"tail\""),
            "an unterminated line is never answered"
        );
        assert_eq!(one_byte, one_read);
    }
}
