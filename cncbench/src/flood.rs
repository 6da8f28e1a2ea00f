//! The open-loop point-query generator: one thread per connection (at most
//! `nproc` of each) sends `count(u, v)` frames on a fixed schedule whatever
//! the replies do, and times every reply from the moment its request was
//! due. Requests pipeline on a connection; the daemon answers each
//! connection in order, so replies are matched first-in first-out.

use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::os::fd::AsRawFd;
use std::time::{Duration, Instant};

use cnc_graph::CsrGraph;
use cnc_serve::protocol::{decode_reply, encode_request};
use cnc_serve::{Refusal, Reply, Request};
use rand::{rngs::StdRng, Rng, SeedableRng};

use crate::report::{median, percentile, Outcome};
use crate::sys::{poll_fd, POLLIN, POLLOUT};

/// Share of queries aimed at planted non-edges (must come back
/// `not_an_edge`).
pub const NON_EDGE_SHARE: f64 = 0.02;

/// Replies still missing this long after the last request was due are
/// counted as lost.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(5);

/// One point query and the answer the oracle expects.
#[derive(Debug, Clone, Copy)]
pub struct Query {
    pub u: u32,
    pub v: u32,
    pub want: Option<u32>,
}

/// `n` seeded queries: uniformly drawn directed edges of `g` (input ids)
/// and, at [`NON_EDGE_SHARE`], random vertex pairs that are not edges.
pub fn make_queries(g: &CsrGraph, oracle: &[u32], n: usize, seed: u64) -> Vec<Query> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed_f100d);
    let nv = g.num_vertices() as u32;
    let m = g.num_directed_edges();
    let offsets = g.offsets();
    let dst = g.dst();
    (0..n)
        .map(|_| {
            if rng.gen::<f64>() < NON_EDGE_SHARE {
                loop {
                    let (u, v) = (rng.gen_range(0..nv), rng.gen_range(0..nv));
                    if u != v && g.edge_offset(u, v).is_none() {
                        return Query { u, v, want: None };
                    }
                }
            }
            let e = rng.gen_range(0..m);
            let u = (offsets.partition_point(|&o| o <= e) - 1) as u32;
            Query {
                u,
                v: dst[e],
                want: Some(oracle[e]),
            }
        })
        .collect()
}

/// What one phase at one offered rate produced.
#[derive(Debug, Default, Clone)]
pub struct PhaseOut {
    /// Latency (ms) from due time to reply, one per request; infinite for
    /// requests that failed, were refused, or never got a reply.
    pub lat_ms: Vec<f64>,
    /// Due time (s since the phase began) of each `lat_ms` entry.
    pub due_s: Vec<f64>,
    /// How late (ms) each request left the generator.
    pub late_ms: Vec<f64>,
    pub sent: u64,
    pub wrong: u64,
    pub refused: u64,
    pub lost: u64,
    /// Replies per second over the phase (first due time to last reply).
    pub achieved_qps: f64,
}

impl PhaseOut {
    pub fn failed(&self) -> u64 {
        self.wrong + self.refused + self.lost
    }

    pub fn p(&self, q: f64) -> f64 {
        percentile(&self.lat_ms, q)
    }

    /// Whether a backlog built up: the median latency of the last fifth of
    /// the phase (by due time) exceeds twice that of the first fifth plus
    /// 1 ms. An overloaded daemon's latency climbs through the phase; a
    /// host stall only lifts the stretch it hits.
    pub fn growing(&self) -> bool {
        let end = self.due_s.iter().copied().fold(0.0, f64::max);
        let part = |lo: f64, hi: f64| -> Vec<f64> {
            self.due_s
                .iter()
                .zip(&self.lat_ms)
                .filter(|(&d, _)| d >= lo && d <= hi)
                .map(|(_, &l)| l)
                .collect()
        };
        median(&part(0.8 * end, end)) > 2.0 * median(&part(0.0, 0.2 * end)) + 1.0
    }

    /// Fold this phase's operations into the run's tallies.
    pub fn tally_into(&self, out: &mut Outcome) {
        out.tally(self.sent, self.failed());
    }
}

struct ConnOut {
    lat_ms: Vec<f64>,
    late_ms: Vec<f64>,
    wrong: u64,
    refused: u64,
    lost: u64,
    last_reply_s: f64,
}

/// Offer `rate` queries per second for `secs` seconds over `conns`
/// connections, drawing queries cyclically from `queries` starting at
/// `offset`. `flip` corrupts one answer, as a wrong server would.
pub fn run_phase(
    addr: &str,
    queries: &[Query],
    offset: usize,
    rate: f64,
    secs: f64,
    conns: usize,
    flip: bool,
) -> Result<PhaseOut, String> {
    let n = ((rate * secs).round() as usize).max(conns);
    let conns = conns.max(1);
    let start = Instant::now() + Duration::from_millis(10);
    let results: Vec<Result<ConnOut, String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..conns)
            .map(|k| {
                scope.spawn(move || {
                    let mine: Vec<usize> = (k..n).step_by(conns).collect();
                    connection(addr, queries, offset, rate, &mine, start, flip && k == 0)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("generator thread panicked".into()))
            })
            .collect()
    });
    let mut out = PhaseOut {
        sent: n as u64,
        ..PhaseOut::default()
    };
    let mut last_reply_s: f64 = 0.0;
    for (k, r) in results.into_iter().enumerate() {
        let c = r?;
        out.due_s
            .extend((0..c.lat_ms.len()).map(|j| (k + j * conns) as f64 / rate));
        out.lat_ms.extend(c.lat_ms);
        out.late_ms.extend(c.late_ms);
        out.wrong += c.wrong;
        out.refused += c.refused;
        out.lost += c.lost;
        last_reply_s = last_reply_s.max(c.last_reply_s);
    }
    let answered = n as u64 - out.lost;
    out.achieved_qps = answered as f64 / last_reply_s.max(1e-9);
    eprintln!(
        "cncbench: flood {rate} q/s x {secs} s: p50 {:.3} ms, p99 {:.3} ms, late p99 {:.3} ms, \
         {:.0} q/s achieved, growing {}, failed {}",
        out.p(50.0),
        out.p(99.0),
        percentile(&out.late_ms, 99.0),
        out.achieved_qps,
        out.growing(),
        out.failed()
    );
    Ok(out)
}

fn connection(
    addr: &str,
    queries: &[Query],
    offset: usize,
    rate: f64,
    mine: &[usize],
    start: Instant,
    flip: bool,
) -> Result<ConnOut, String> {
    let mut s = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    s.set_nodelay(true).map_err(|e| e.to_string())?;
    s.set_nonblocking(true).map_err(|e| e.to_string())?;
    let fd = s.as_raw_fd();
    let due = |j: usize| mine[j] as f64 / rate;
    let query = |j: usize| queries[(offset + mine[j]) % queries.len()];
    let last_due = mine.last().map_or(0.0, |&i| i as f64 / rate);
    let mut c = ConnOut {
        lat_ms: Vec::with_capacity(mine.len()),
        late_ms: Vec::with_capacity(mine.len()),
        wrong: 0,
        refused: 0,
        lost: 0,
        last_reply_s: 0.0,
    };
    let (mut sent, mut received) = (0usize, 0usize);
    let mut out_buf: Vec<u8> = Vec::new();
    let mut in_buf: Vec<u8> = Vec::new();
    let mut chunk = [0u8; 16 * 1024];
    if let Some(wait) = start.checked_duration_since(Instant::now()) {
        std::thread::sleep(wait);
    }
    while received < mine.len() {
        let now = start.elapsed().as_secs_f64();
        // Send everything that is due.
        while sent < mine.len() && due(sent) <= now {
            let q = query(sent);
            let payload = encode_request(&Request::Count { u: q.u, v: q.v });
            out_buf.extend_from_slice(&(payload.len() as u32).to_le_bytes());
            out_buf.extend_from_slice(&payload);
            c.late_ms.push((now - due(sent)) * 1e3);
            sent += 1;
        }
        if !out_buf.is_empty() {
            match s.write(&out_buf) {
                Ok(k) => {
                    out_buf.drain(..k);
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => {}
                Err(e) => return Err(format!("send failed: {e}")),
            }
        }
        // Take whatever replies have arrived.
        loop {
            match s.read(&mut chunk) {
                Ok(0) => {
                    c.lost += (mine.len() - received) as u64;
                    c.lat_ms.resize(mine.len(), f64::INFINITY);
                    return Ok(c);
                }
                Ok(k) => in_buf.extend_from_slice(&chunk[..k]),
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(format!("receive failed: {e}")),
            }
        }
        let t_recv = start.elapsed().as_secs_f64();
        let mut at = 0usize;
        while in_buf.len() - at >= 4 && received < mine.len() {
            let len =
                u32::from_le_bytes([in_buf[at], in_buf[at + 1], in_buf[at + 2], in_buf[at + 3]])
                    as usize;
            if in_buf.len() - at - 4 < len {
                break;
            }
            let payload = &in_buf[at + 4..at + 4 + len];
            at += 4 + len;
            let q = query(received);
            let req = Request::Count { u: q.u, v: q.v };
            let mut answer = match decode_reply(payload, &req) {
                Ok(Reply::Count(n)) => Ok(Some(n)),
                Ok(Reply::Refused {
                    refusal: Refusal::NotAnEdge,
                    ..
                }) => Ok(None),
                Ok(Reply::Refused {
                    refusal: Refusal::Overloaded,
                    ..
                }) => Err(true),
                _ => Err(false),
            };
            if flip && received == mine.len() / 2 {
                answer = Ok(answer.ok().flatten().map_or(Some(0), |n| Some(n + 1)));
            }
            match answer {
                Ok(got) if got == q.want => c.lat_ms.push((t_recv - due(received)) * 1e3),
                Err(true) => {
                    c.refused += 1;
                    c.lat_ms.push(f64::INFINITY);
                }
                _ => {
                    c.wrong += 1;
                    c.lat_ms.push(f64::INFINITY);
                }
            }
            received += 1;
            c.last_reply_s = t_recv;
        }
        in_buf.drain(..at);
        if received == mine.len() {
            break;
        }
        let now = start.elapsed().as_secs_f64();
        if sent == mine.len() && now > last_due + DRAIN_TIMEOUT.as_secs_f64() {
            c.lost += (mine.len() - received) as u64;
            c.lat_ms.resize(mine.len(), f64::INFINITY);
            return Ok(c);
        }
        // Sleep until the next request is due or a reply arrives.
        let wait = if sent < mine.len() {
            Duration::from_secs_f64((due(sent) - now).max(0.0))
        } else {
            Duration::from_millis(20)
        };
        let events = if out_buf.is_empty() {
            POLLIN
        } else {
            POLLIN | POLLOUT
        };
        if !wait.is_zero() {
            poll_fd(fd, events, wait);
        }
    }
    Ok(c)
}
