//! The open-loop load generator: one thread driving at most `nproc`
//! connections. Each tenant is pinned to one connection, so a
//! tenant's requests reach the server in generation order. Requests are
//! pipelined on a schedule, whatever the server's progress; a request's
//! latency runs from when it was due to when its reply line arrived.

use std::collections::VecDeque;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::fd::AsRawFd;
use std::time::{Duration, Instant};

/// Never sent (the phase was cut short) or never answered.
pub const NONE: u64 = u64::MAX;

/// What happened to one request.
#[derive(Clone, Copy, Debug)]
pub struct Outcome {
    pub due_ns: u64,
    /// When its last byte was handed to the kernel.
    pub sent_ns: u64,
    pub recv_ns: u64,
    /// FNV-1a of the reply line (without its newline).
    pub hash: u64,
    pub reply_bytes: u64,
}

impl Outcome {
    pub fn latency_us(&self) -> Option<f64> {
        (self.recv_ns != NONE).then(|| (self.recv_ns - self.due_ns) as f64 / 1e3)
    }

    pub fn late_us(&self) -> Option<f64> {
        (self.sent_ns != NONE).then(|| self.sent_ns.saturating_sub(self.due_ns) as f64 / 1e3)
    }
}

/// One client connection, past the server's banner.
pub struct Conn {
    stream: TcpStream,
}

impl Conn {
    pub fn open(addr: SocketAddr) -> Result<Conn, String> {
        let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        // The banner is one line; read it byte by byte so nothing after it
        // is consumed.
        let mut byte = [0u8; 1];
        let mut banner = Vec::new();
        while byte[0] != b'\n' {
            match stream.read(&mut byte) {
                Ok(1) => banner.push(byte[0]),
                _ => return Err("connection closed before the banner".into()),
            }
        }
        if !banner.starts_with(b"ok blowfish/1") {
            return Err(format!(
                "unexpected banner {:?}",
                String::from_utf8_lossy(&banner)
            ));
        }
        stream.set_nonblocking(true).map_err(|e| e.to_string())?;
        Ok(Conn { stream })
    }

    /// A blocking request/reply exchange for control lines (`stats`).
    pub fn call(&mut self, line: &str) -> Result<String, String> {
        let items = [Item {
            due_ns: 0,
            line: line.as_bytes(),
        }];
        let mut state = ConnState::new(&items, true);
        drive(
            std::slice::from_mut(self),
            std::slice::from_mut(&mut state),
            u64::MAX,
        )?;
        if state.out[0].recv_ns == NONE {
            return Err(format!("no reply to {line}"));
        }
        Ok(String::from_utf8_lossy(&state.kept).trim_end().to_string())
    }
}

/// One connection's progress through its schedule.
struct ConnState<'a> {
    items: &'a [Item<'a>],
    out: Vec<Outcome>,
    next: usize,
    wbuf: Vec<u8>,
    wpos: usize,
    /// (item, end offset in `wbuf`) of items not yet fully written.
    unsent: VecDeque<(usize, usize)>,
    /// Items written and waiting for their reply, in order.
    awaiting: VecDeque<usize>,
    line_hash: u64,
    line_len: u64,
    /// Raw reply bytes, kept only for control lines.
    keep: bool,
    kept: Vec<u8>,
}

impl<'a> ConnState<'a> {
    fn new(items: &'a [Item<'a>], keep: bool) -> ConnState<'a> {
        ConnState {
            items,
            out: items
                .iter()
                .map(|it| Outcome {
                    due_ns: it.due_ns,
                    sent_ns: NONE,
                    recv_ns: NONE,
                    hash: 0,
                    reply_bytes: 0,
                })
                .collect(),
            next: 0,
            wbuf: Vec::new(),
            wpos: 0,
            unsent: VecDeque::new(),
            awaiting: VecDeque::new(),
            line_hash: FNV_OFFSET,
            line_len: 0,
            keep,
            kept: Vec::new(),
        }
    }

    fn done(&self, stopped: bool) -> bool {
        (stopped || self.next == self.items.len())
            && self.unsent.is_empty()
            && self.awaiting.is_empty()
    }

    /// Queues every item due by `now` (unless sending has stopped) and
    /// writes what the socket takes.
    fn send(&mut self, stream: &mut TcpStream, t0: Instant, stopped: bool) -> Result<(), String> {
        let now = t0.elapsed().as_nanos() as u64;
        while !stopped && self.next < self.items.len() && self.items[self.next].due_ns <= now {
            self.wbuf.extend_from_slice(self.items[self.next].line);
            self.wbuf.push(b'\n');
            self.unsent.push_back((self.next, self.wbuf.len()));
            self.next += 1;
        }
        if self.wpos == self.wbuf.len() {
            return Ok(());
        }
        match stream.write(&self.wbuf[self.wpos..]) {
            Ok(n) => self.wpos += n,
            Err(e) if e.kind() == ErrorKind::WouldBlock => {}
            Err(e) => return Err(format!("write: {e}")),
        }
        let now = t0.elapsed().as_nanos() as u64;
        while self
            .unsent
            .front()
            .is_some_and(|&(_, end)| end <= self.wpos)
        {
            let (i, _) = self.unsent.pop_front().expect("checked non-empty");
            self.out[i].sent_ns = now;
            self.awaiting.push_back(i);
        }
        if self.wpos == self.wbuf.len() {
            self.wbuf.clear();
            self.wpos = 0;
        }
        Ok(())
    }

    /// Reads every available reply byte, completing items line by line.
    fn receive(
        &mut self,
        stream: &mut TcpStream,
        t0: Instant,
        rbuf: &mut [u8],
    ) -> Result<(), String> {
        loop {
            let n = match stream.read(rbuf) {
                Ok(0) => return Err("server closed the connection".into()),
                Ok(n) => n,
                Err(e) if e.kind() == ErrorKind::WouldBlock => return Ok(()),
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(e) => return Err(format!("read: {e}")),
            };
            let now = t0.elapsed().as_nanos() as u64;
            if self.keep {
                self.kept.extend_from_slice(&rbuf[..n]);
            }
            for &b in &rbuf[..n] {
                if b == b'\n' {
                    let Some(i) = self.awaiting.pop_front() else {
                        return Err("reply without a request".into());
                    };
                    self.out[i].recv_ns = now;
                    self.out[i].hash = self.line_hash;
                    self.out[i].reply_bytes = self.line_len + 1;
                    self.line_hash = FNV_OFFSET;
                    self.line_len = 0;
                } else {
                    self.line_hash = (self.line_hash ^ b as u64).wrapping_mul(FNV_PRIME);
                    self.line_len += 1;
                }
            }
        }
    }
}

/// Drives every connection's schedule from one thread. If the oldest
/// unanswered request on any connection is older than `stall_ns`,
/// sending stops everywhere and the answered prefix is kept.
fn drive(conns: &mut [Conn], states: &mut [ConnState], stall_ns: u64) -> Result<(), String> {
    set_timer_slack();
    // A short lead so the first due time is not already past.
    let t0 = Instant::now() + Duration::from_millis(1);
    let mut rbuf = vec![0u8; 1 << 16];
    let mut stopped = false;
    let last_due = states
        .iter()
        .filter_map(|s| s.items.last())
        .map(|it| it.due_ns)
        .max()
        .unwrap_or(0);
    loop {
        for (conn, st) in conns.iter_mut().zip(states.iter_mut()) {
            st.send(&mut conn.stream, t0, stopped)?;
            st.receive(&mut conn.stream, t0, &mut rbuf)?;
        }
        if states.iter().all(|s| s.done(stopped)) {
            return Ok(());
        }
        let now = t0.elapsed().as_nanos() as u64;
        if now > last_due + DRAIN_LIMIT_NS {
            return Ok(());
        }
        let stalled = states.iter().any(|s| {
            s.awaiting
                .front()
                .is_some_and(|&i| now.saturating_sub(s.out[i].due_ns) > stall_ns)
        });
        stopped |= stalled;
        let next_due = states
            .iter()
            .filter(|s| !stopped && s.next < s.items.len())
            .map(|s| s.items[s.next].due_ns)
            .min();
        let wait_ns = next_due.map_or(WAIT_CAP_NS, |d| d.saturating_sub(now).min(WAIT_CAP_NS));
        let pending_write = states.iter().any(|s| s.wpos < s.wbuf.len());
        if wait_ns > 0 || pending_write {
            let mut fds: Vec<PollFd> = conns
                .iter()
                .zip(states.iter())
                .map(|(c, s)| PollFd {
                    fd: c.stream.as_raw_fd(),
                    events: POLLIN | if s.wpos < s.wbuf.len() { POLLOUT } else { 0 },
                    revents: 0,
                })
                .collect();
            poll(&mut fds, wait_ns);
        }
    }
}

/// Give up on replies this long after the last due time.
const DRAIN_LIMIT_NS: u64 = 60_000_000_000;
/// Longest single park, so the stall check runs regularly.
const WAIT_CAP_NS: u64 = 10_000_000;

/// A request line and when it is due, ns after the phase start.
#[derive(Clone, Copy)]
pub struct Item<'a> {
    pub due_ns: u64,
    pub line: &'a [u8],
}

pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
pub const FNV_PRIME: u64 = 0x0100_0000_01b3;

/// FNV-1a of one reply line, as [`Conn`] hashes it on arrival.
pub fn line_hash(line: &str) -> u64 {
    line.bytes()
        .fold(FNV_OFFSET, |h, b| (h ^ b as u64).wrapping_mul(FNV_PRIME))
}

/// Runs one phase: `per_conn[c]` is connection `c`'s schedule, all
/// driven from the calling thread. Returns each connection's outcomes,
/// aligned with its items.
pub fn run(
    conns: &mut [Conn],
    per_conn: &[Vec<Item>],
    stall_ns: u64,
) -> Result<Vec<Vec<Outcome>>, String> {
    let mut states: Vec<ConnState> = per_conn
        .iter()
        .map(|items| ConnState::new(items, false))
        .collect();
    drive(conns, &mut states, stall_ns)?;
    Ok(states.into_iter().map(|s| s.out).collect())
}

#[repr(C)]
struct PollFd {
    fd: i32,
    events: i16,
    revents: i16,
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn ppoll(
        fds: *mut PollFd,
        nfds: u64,
        timeout: *const Timespec,
        sigmask: *const std::ffi::c_void,
    ) -> i32;
}

const POLLIN: i16 = 0x001;
const POLLOUT: i16 = 0x004;

extern "C" {
    fn prctl(option: i32, arg2: u64, arg3: u64, arg4: u64, arg5: u64) -> i32;
}

const PR_SET_TIMERSLACK: i32 = 29;

/// Shrinks this thread's timer slack from the default 50 µs to 1 µs, so
/// parked waits end close to the next due time.
fn set_timer_slack() {
    // SAFETY: PR_SET_TIMERSLACK takes a plain integer and changes only
    // the calling thread's timer slack; it touches no memory of ours.
    unsafe {
        prctl(PR_SET_TIMERSLACK, 1, 0, 0, 0);
    }
}

/// Parks until a socket is ready as asked or `ns` nanoseconds pass.
/// `ppoll` takes a nanosecond timeout, which keeps sends on schedule far
/// better than socket timeouts (whole jiffies).
fn poll(fds: &mut [PollFd], ns: u64) {
    let ts = Timespec {
        tv_sec: (ns / 1_000_000_000) as i64,
        tv_nsec: (ns % 1_000_000_000) as i64,
    };
    // SAFETY: `fds` is a live slice of `struct pollfd` values and its
    // length is passed as nfds; `ts` is a live `struct timespec`; a null
    // sigmask leaves the signal mask unchanged. Errors (EINTR) just end
    // the wait early, which the caller tolerates.
    unsafe {
        ppoll(fds.as_mut_ptr(), fds.len() as u64, &ts, std::ptr::null());
    }
}
