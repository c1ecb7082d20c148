//! The `relaxed-serviced` child process and a byte-counting relay in
//! front of it.

use crate::measure::children;
use relaxed_core::service::shutdown_service;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How long start-up, drain and exit may take before the benchmark gives
/// up on the daemon and kills it.
const PATIENCE: Duration = Duration::from_secs(30);

/// A running `relaxed-serviced` started by this process.
pub struct Daemon {
    child: Child,
    /// The daemon's listen address.
    pub addr: String,
}

impl Daemon {
    /// Starts `binary` on an ephemeral localhost port with a `fleet`-worker
    /// fleet over the verdict store at `store`, and waits for its
    /// `listening` line. The daemon's environment holds only the store
    /// path, so no `DISCHARGE_*` knob or fault hook of the caller leaks
    /// into it or its fleet.
    ///
    /// # Errors
    ///
    /// Fails when the daemon cannot start or does not report its address
    /// in time; the child is killed and reaped first.
    pub fn start(binary: &Path, store: &Path, fleet: usize) -> Result<Daemon, String> {
        let mut child = Command::new(binary)
            .args(["--addr", "127.0.0.1:0", "--fleet", &fleet.to_string()])
            .env_clear()
            .env("DISCHARGE_CACHE", store)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", binary.display()))?;
        let stdout = child.stdout.take().expect("stdout is piped");
        let (tx, rx) = mpsc::channel();
        // Reads the one start-up line, then drops the pipe: the daemon
        // tolerates a closed stdout after that line.
        let reader = std::thread::spawn(move || {
            let mut line = String::new();
            let _ = BufReader::new(stdout).read_line(&mut line);
            let _ = tx.send(line);
        });
        let line = rx.recv_timeout(PATIENCE);
        if line.is_err() {
            let _ = child.kill();
            let _ = child.wait();
        }
        reader
            .join()
            .map_err(|_| "start-up reader panicked".to_string())?;
        let line = line.map_err(|_| "relaxed-serviced printed no start-up line".to_string())?;
        let addr = line
            .split_whitespace()
            .skip_while(|word| *word != "on")
            .nth(1)
            .map(str::to_string);
        match addr {
            Some(addr) => Ok(Daemon { child, addr }),
            None => {
                let _ = child.kill();
                let _ = child.wait();
                Err(format!("unexpected start-up line {line:?}"))
            }
        }
    }

    /// The daemon and its fleet workers.
    pub fn pids(&self) -> Vec<u32> {
        let mut pids = vec![self.child.id()];
        pids.extend(children(self.child.id()));
        pids
    }

    /// Drains the daemon with a `shutdown` frame, kills it if it does not
    /// exit in time, and waits until no fleet worker is left.
    ///
    /// # Errors
    ///
    /// Reports a daemon that had to be killed or a worker that outlived
    /// it.
    pub fn stop(mut self) -> Result<(), String> {
        let workers = children(self.child.id());
        let drained = shutdown_service(&self.addr, PATIENCE);
        let exited = wait_or_kill(&mut self.child, PATIENCE);
        let deadline = Instant::now() + PATIENCE;
        while workers.iter().any(|pid| alive(*pid)) && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(10));
        }
        let leaked: Vec<u32> = workers.into_iter().filter(|pid| alive(*pid)).collect();
        drained?;
        if !exited {
            return Err("relaxed-serviced did not exit after draining; killed".to_string());
        }
        if !leaked.is_empty() {
            return Err(format!("fleet workers {leaked:?} outlived the daemon"));
        }
        Ok(())
    }
}

impl Drop for Daemon {
    /// Kills and reaps a daemon that was not stopped (an error path); its
    /// fleet workers exit when their pipes to it close.
    fn drop(&mut self) {
        if matches!(self.child.try_wait(), Ok(None)) {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// Whether `pid` is still running (a zombie counts as ended).
fn alive(pid: u32) -> bool {
    std::fs::read_to_string(format!("/proc/{pid}/stat"))
        .map(|stat| {
            let state = stat
                .rfind(')')
                .and_then(|i| stat[i + 1..].split_whitespace().next());
            state != Some("Z")
        })
        .unwrap_or(false)
}

/// Waits up to `patience` for `child` to exit, then kills and reaps it.
/// Returns whether it exited by itself.
fn wait_or_kill(child: &mut Child, patience: Duration) -> bool {
    let deadline = Instant::now() + patience;
    loop {
        match child.try_wait() {
            Ok(Some(_)) => return true,
            Ok(None) if Instant::now() < deadline => std::thread::sleep(Duration::from_millis(5)),
            _ => {
                let _ = child.kill();
                let _ = child.wait();
                return false;
            }
        }
    }
}

/// Byte and time counters the relay keeps for the traffic of one op.
#[derive(Default)]
struct Counters {
    up: AtomicU64,
    down: AtomicU64,
    /// Nanoseconds since the relay's epoch of the first client byte and
    /// the last daemon byte (`0` = none yet).
    first_up: AtomicU64,
    last_down: AtomicU64,
}

/// Wire traffic of one op, read from a [`Relay`].
#[derive(Clone, Copy, Debug, Default)]
pub struct Traffic {
    /// Bytes the client sent to the daemon.
    pub request_bytes: u64,
    /// Bytes the daemon sent to the client.
    pub response_bytes: u64,
    /// From the first client byte to the last daemon byte: the time the
    /// request spent on the wire and in the daemon.
    pub server: Duration,
}

/// A localhost TCP relay that forwards every connection to `target` and
/// counts the bytes both ways, so the traced run can report wire sizes
/// without touching the protocol code.
pub struct Relay {
    /// The relay's listen address; point the client here.
    pub addr: String,
    counters: Arc<Counters>,
    stop: Arc<AtomicBool>,
    acceptor: Option<JoinHandle<()>>,
    pumps: Arc<Mutex<Vec<JoinHandle<()>>>>,
}

impl Relay {
    /// Starts relaying to `target`.
    ///
    /// # Errors
    ///
    /// Fails when no local port can be bound.
    pub fn start(target: &str) -> Result<Relay, String> {
        let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| e.to_string())?;
        let addr = listener
            .local_addr()
            .map_err(|e| e.to_string())?
            .to_string();
        let epoch = Instant::now();
        let counters = Arc::new(Counters::default());
        let stop = Arc::new(AtomicBool::new(false));
        let pumps: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::default();
        let target = target.to_string();
        let acceptor = {
            let (counters, stop, pumps) = (counters.clone(), stop.clone(), pumps.clone());
            std::thread::spawn(move || {
                for client in listener.incoming() {
                    if stop.load(Ordering::SeqCst) {
                        break;
                    }
                    let (Ok(client), Ok(daemon)) = (client, TcpStream::connect(&target)) else {
                        continue;
                    };
                    let _ = client.set_nodelay(true);
                    let _ = daemon.set_nodelay(true);
                    let mut pumps = pumps.lock().expect("relay pump list");
                    for (from, to, upstream) in [
                        (client.try_clone(), daemon.try_clone(), true),
                        (daemon.try_clone(), client.try_clone(), false),
                    ] {
                        let (Ok(from), Ok(to)) = (from, to) else {
                            continue;
                        };
                        let counters = counters.clone();
                        pumps.push(std::thread::spawn(move || {
                            pump(from, to, upstream, epoch, &counters);
                        }));
                    }
                }
            })
        };
        Ok(Relay {
            addr,
            counters,
            stop,
            acceptor: Some(acceptor),
            pumps,
        })
    }

    /// The traffic since the last call, and resets the counters.
    pub fn take(&self) -> Traffic {
        let c = &self.counters;
        let first = c.first_up.swap(0, Ordering::SeqCst);
        let last = c.last_down.swap(0, Ordering::SeqCst);
        Traffic {
            request_bytes: c.up.swap(0, Ordering::SeqCst),
            response_bytes: c.down.swap(0, Ordering::SeqCst),
            server: Duration::from_nanos(last.saturating_sub(first)),
        }
    }

    /// Stops accepting and joins every relay thread (connections end when
    /// their client closes them).
    pub fn stop(mut self) {
        self.stop.store(true, Ordering::SeqCst);
        let _ = TcpStream::connect(&self.addr);
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
        for pump in std::mem::take(&mut *self.pumps.lock().expect("relay pump list")) {
            let _ = pump.join();
        }
    }
}

/// Copies `from` to `to` until end of stream, counting bytes and
/// stamping the first upstream and the last downstream chunk.
fn pump(mut from: TcpStream, mut to: TcpStream, upstream: bool, epoch: Instant, c: &Counters) {
    let mut buf = [0u8; 16 * 1024];
    loop {
        let n = match from.read(&mut buf) {
            Ok(0) | Err(_) => break,
            Ok(n) => n,
        };
        // Count before forwarding: the op may finish as soon as the
        // client has read these bytes.
        let now = u64::try_from(epoch.elapsed().as_nanos())
            .unwrap_or(u64::MAX)
            .max(1);
        if upstream {
            c.up.fetch_add(n as u64, Ordering::SeqCst);
            let _ = c
                .first_up
                .compare_exchange(0, now, Ordering::SeqCst, Ordering::SeqCst);
        } else {
            c.down.fetch_add(n as u64, Ordering::SeqCst);
            c.last_down.store(now, Ordering::SeqCst);
        }
        if to.write_all(&buf[..n]).is_err() {
            break;
        }
    }
    let _ = to.shutdown(Shutdown::Write);
}
