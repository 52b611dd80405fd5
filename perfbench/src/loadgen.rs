//! Open-loop request timing: requests are due on a schedule whatever the
//! system does, so each one is timed from when it was due, and the time
//! it waited for a free connection shows as lateness.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// One request of an open-loop run. Times are seconds after the run
/// started.
#[derive(Debug, Clone)]
pub struct Timed<T> {
    pub index: usize,
    pub due: f64,
    pub sent: f64,
    pub finished: f64,
    /// Requests already due, other than this one, that no connection had
    /// taken when this one was sent.
    pub backlog: usize,
    pub value: T,
}

impl<T> Timed<T> {
    /// How long after its due time the request was sent.
    pub fn late(&self) -> f64 {
        self.sent - self.due
    }

    /// From the due time to the answer.
    pub fn latency(&self) -> f64 {
        self.finished - self.due
    }
}

/// Plays the due times `dues` (ascending, seconds after the start) over
/// one worker per element of `connections`. Each worker takes the next
/// request, sleeps until it is due if it is early, and calls
/// `call(connection, index, start)`. Results are returned in due order,
/// with the run's start instant.
pub fn open_loop<C: Send, T: Send>(
    dues: &[f64],
    connections: Vec<C>,
    call: impl Fn(&mut C, usize, Instant) -> T + Sync,
) -> (Instant, Vec<Timed<T>>) {
    let next = AtomicUsize::new(0);
    let start = Instant::now();
    let secs = |t: Instant| t.saturating_duration_since(start).as_secs_f64();
    let mut out: Vec<Timed<T>> = std::thread::scope(|scope| {
        let workers: Vec<_> = connections
            .into_iter()
            .map(|mut conn| {
                let (next, call) = (&next, &call);
                scope.spawn(move || {
                    let mut mine = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::SeqCst);
                        let Some(&due) = dues.get(i) else { break };
                        let due_at = start + Duration::from_secs_f64(due);
                        if let Some(wait) = due_at.checked_duration_since(Instant::now()) {
                            std::thread::sleep(wait);
                        }
                        let sent = Instant::now();
                        let backlog = dues
                            .partition_point(|&d| d <= secs(sent))
                            .saturating_sub(i + 1);
                        let value = call(&mut conn, i, start);
                        mine.push(Timed {
                            index: i,
                            due,
                            sent: secs(sent),
                            finished: secs(Instant::now()),
                            backlog,
                            value,
                        });
                    }
                    mine
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("open-loop worker panicked"))
            .collect()
    });
    out.sort_by_key(|t| t.index);
    (start, out)
}

/// Whether requests leave ever later: the median lateness of the last
/// quarter exceeds the first quarter's by `margin`. Medians keep a passing
/// burst from reading as growth.
pub fn backlog_growing(late: &[f64], margin: f64) -> bool {
    if late.is_empty() {
        return false;
    }
    let q = (late.len() / 4).max(1);
    let med = |v: &[f64]| crate::stats::median(v).unwrap_or(0.0);
    med(&late[late.len() - q..]) > med(&late[..q]) + margin
}
