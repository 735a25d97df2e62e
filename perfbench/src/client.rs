//! The closed-loop load generator: a fixed number of connections, each
//! sending its next frame only after the previous answer has arrived.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use crate::reference::{check, Entry, WireSpans};
use crate::server::Conn;

/// One frame to send: the line, its envelope id, and its corpus entry.
pub struct Outgoing<'a> {
    pub line: String,
    pub id: Option<u64>,
    pub entry: &'a Entry,
}

/// One answered (or failed) request.
#[derive(Debug, Clone)]
pub struct Sample {
    pub entry: usize,
    /// From the start of the phase to the first byte sent.
    pub start: Duration,
    pub rtt: Duration,
    pub ok: bool,
    pub spans: Option<WireSpans>,
}

pub struct Phase {
    pub started: Instant,
    /// Frames in one pass over the corpus.
    pub pass_len: usize,
    pub samples: Vec<Sample>,
    /// Phase start to the last answer.
    pub elapsed: Duration,
    /// The first failure seen, for the report.
    pub first_error: Option<String>,
}

impl Phase {
    pub fn completed_ok(&self) -> usize {
        self.samples.iter().filter(|s| s.ok).count()
    }

    /// Requests per second: the median over the phase's whole passes of
    /// each pass's frames over its wall-clock time, so a short stall of the
    /// machine moves one pass, not the figure. With no whole pass, the
    /// phase's overall rate.
    pub fn throughput(&self) -> f64 {
        let rates: Vec<f64> = self
            .samples
            .chunks_exact(self.pass_len.max(1))
            .map(|pass| {
                let first = pass.iter().map(|s| s.start).min().unwrap_or_default();
                let last = pass.iter().map(|s| s.start + s.rtt).max().unwrap_or_default();
                pass.len() as f64 / (last - first).as_secs_f64().max(1e-9)
            })
            .collect();
        if rates.is_empty() {
            self.samples.len() as f64 / self.elapsed.as_secs_f64().max(1e-9)
        } else {
            crate::metrics::median(&rates)
        }
    }

    /// Concatenate phases run one after another: sample starts are
    /// re-based on the first phase's start, and the elapsed times add up.
    pub fn merge(phases: Vec<Phase>) -> Phase {
        let started = phases.first().map_or_else(Instant::now, |p| p.started);
        let mut merged = Phase {
            started,
            pass_len: phases.first().map_or(1, |p| p.pass_len),
            samples: Vec::new(),
            elapsed: Duration::ZERO,
            first_error: None,
        };
        for p in phases {
            let offset = p.started - started;
            merged.samples.extend(p.samples.into_iter().map(|mut s| {
                s.start += offset;
                s
            }));
            merged.elapsed += p.elapsed;
            merged.first_error = merged.first_error.or(p.first_error);
        }
        merged
    }

    /// Sorted round-trip times in ms, over successful requests.
    pub fn rtts_ms(&self) -> Vec<f64> {
        let mut v: Vec<f64> = self
            .samples
            .iter()
            .filter(|s| s.ok)
            .map(|s| s.rtt.as_secs_f64() * 1e3)
            .collect();
        v.sort_by(f64::total_cmp);
        v
    }
}

/// How long a phase runs: at least `seconds` and at least `min_requests`
/// requests, then on to the end of the current pass over the frames, so
/// every phase sends each frame equally often; but never past
/// `seconds * 3` (so a stuck server ends the run).
pub struct Until {
    pub seconds: f64,
    pub min_requests: usize,
}

/// Drive `frames` round-robin over `conns`, one thread each. The
/// connections are opened and warmed by the caller and kept across phases,
/// so the server serves every phase on the same warm threads. Every answer
/// is checked against its entry as it arrives.
pub fn run(conns: &mut [Conn], frames: &[Outgoing<'_>], until: &Until) -> Phase {
    let next = AtomicUsize::new(0);
    let first_error: Mutex<Option<String>> = Mutex::new(None);
    let note = |e: String| {
        let mut slot = first_error.lock().unwrap_or_else(|p| p.into_inner());
        slot.get_or_insert(e);
    };
    let start = Instant::now();
    let hard_stop = Duration::from_secs_f64(until.seconds * 3.0);
    let per_conn: Vec<Vec<Sample>> = std::thread::scope(|scope| {
        let workers: Vec<_> = conns
            .iter_mut()
            .map(|conn| {
                let (next, note) = (&next, &note);
                scope.spawn(move || {
                    let mut samples = Vec::new();
                    let mut reply = String::new();
                    loop {
                        let claimed = next.fetch_update(Ordering::AcqRel, Ordering::Acquire, |k| {
                            let elapsed = start.elapsed();
                            let enough = elapsed.as_secs_f64() >= until.seconds
                                && k >= until.min_requests
                                && k % frames.len() == 0;
                            let halt = elapsed >= hard_stop;
                            (!enough && !halt).then_some(k + 1)
                        });
                        let Ok(k) = claimed else { break };
                        let i = k % frames.len();
                        let frame = &frames[i];
                        let sent = Instant::now();
                        let call = conn.call(&frame.line, &mut reply);
                        let rtt = sent.elapsed();
                        let broken = call.is_err();
                        let (ok, spans) =
                            match call.and_then(|()| check(frame.entry, frame.id, &reply)) {
                                Ok(spans) => (true, spans),
                                Err(e) => {
                                    note(e);
                                    (false, None)
                                }
                            };
                        samples.push(Sample {
                            entry: i,
                            start: sent - start,
                            rtt,
                            ok,
                            spans,
                        });
                        if broken {
                            // The connection itself failed; stop this client.
                            break;
                        }
                    }
                    samples
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("client thread panicked"))
            .collect()
    });
    let mut samples: Vec<Sample> = per_conn.into_iter().flatten().collect();
    samples.sort_by_key(|s| s.start);
    let elapsed = samples
        .iter()
        .map(|s| s.start + s.rtt)
        .max()
        .unwrap_or_else(|| start.elapsed());
    Phase {
        started: start,
        pass_len: frames.len(),
        samples,
        elapsed,
        first_error: first_error.into_inner().unwrap_or_else(|p| p.into_inner()),
    }
}
