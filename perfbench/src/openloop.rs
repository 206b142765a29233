//! Seeded open-loop request schedule and its single-server loop.
//!
//! Users arrive independently, so requests are due on a fixed schedule
//! whatever the server is doing: a Poisson process at a nominal rate, each
//! request naming an item drawn from a Zipf popularity law. One thread
//! serves the requests in order. A request's latency counts from its due
//! time, so a stalled request delays every request queued behind it, and
//! the loop reports how late it issued requests when it was idle.

use std::time::{Duration, Instant};

/// SplitMix64: a small seedable generator, enough for schedules.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn uniform(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.uniform() * n as f64) as usize
    }
}

/// Zipf popularity over `n` items: the item of rank `k` has weight
/// `1/(k+1)^s`, and ranks are assigned to items by a seeded shuffle so the
/// hot items are scattered over the item table.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
    item_of_rank: Vec<usize>,
}

impl Zipf {
    pub fn new(n: usize, s: f64, rng: &mut Rng) -> Self {
        assert!(n > 0, "zipf needs at least one item");
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (0..n)
            .map(|k| {
                acc += 1.0 / ((k + 1) as f64).powf(s);
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        let mut item_of_rank: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            item_of_rank.swap(i, rng.below(i + 1));
        }
        Zipf { cdf, item_of_rank }
    }

    pub fn draw(&self, rng: &mut Rng) -> usize {
        let u = rng.uniform();
        let rank = self.cdf.partition_point(|&c| c <= u).min(self.cdf.len() - 1);
        self.item_of_rank[rank]
    }
}

/// One scheduled request: when it is due, relative to the start of the
/// schedule, and which item it asks for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Request {
    pub due_ns: u64,
    pub item: usize,
}

/// `count` requests arriving as a Poisson process at `rate` per second.
pub fn poisson_schedule(rng: &mut Rng, zipf: &Zipf, rate: f64, count: usize) -> Vec<Request> {
    let mut t = 0.0f64;
    (0..count)
        .map(|_| {
            t += -(1.0 - rng.uniform()).ln() / rate;
            Request { due_ns: (t * 1e9) as u64, item: zipf.draw(rng) }
        })
        .collect()
}

/// Time source of the serving loop; the tests substitute a simulated clock.
pub trait Clock {
    fn now_ns(&mut self) -> u64;
    /// Return at `t_ns` or as soon after as the clock allows.
    fn wait_until(&mut self, t_ns: u64);
}

/// Wall clock: sleeps until shortly before the due time, then spins, so
/// that idle-time wake-up delay stays in the microseconds.
pub struct WallClock(Instant);

impl WallClock {
    pub fn new() -> Self {
        WallClock(Instant::now())
    }
}

impl Clock for WallClock {
    fn now_ns(&mut self) -> u64 {
        self.0.elapsed().as_nanos() as u64
    }

    fn wait_until(&mut self, t_ns: u64) {
        const SPIN_NS: u64 = 200_000;
        let now = self.now_ns();
        if t_ns > now + SPIN_NS {
            std::thread::sleep(Duration::from_nanos(t_ns - now - SPIN_NS));
        }
        while self.now_ns() < t_ns {
            std::hint::spin_loop();
        }
    }
}

/// What an open-loop run measured, in microseconds per request.
#[derive(Debug, Clone, Default)]
pub struct OpenLoop {
    /// Completion minus due time.
    pub latency_us: Vec<f64>,
    /// Start of service minus due time: the backlog a request met.
    pub wait_us: Vec<f64>,
    /// How late the loop issued a request that arrived while it was
    /// idle (0 for requests that arrived while it was busy).
    pub late_us: Vec<f64>,
    pub failed: u64,
    /// Completion of the last request minus its due time.
    pub final_backlog_us: f64,
}

/// Serve `schedule` in order on the calling thread, starting `lead_ns`
/// from now. `check` runs after each request's completion time is taken
/// and says whether its output was correct; its cost delays later
/// requests but is not part of any latency.
pub fn run_open_loop<T>(
    schedule: &[Request],
    lead_ns: u64,
    clock: &mut impl Clock,
    mut serve: impl FnMut(u64, &Request) -> T,
    mut check: impl FnMut(T) -> bool,
) -> OpenLoop {
    let n = schedule.len();
    let mut out = OpenLoop {
        latency_us: Vec::with_capacity(n),
        wait_us: Vec::with_capacity(n),
        late_us: Vec::with_capacity(n),
        ..OpenLoop::default()
    };
    let origin = clock.now_ns() + lead_ns;
    for (i, request) in schedule.iter().enumerate() {
        let due = origin + request.due_ns;
        let late = if clock.now_ns() < due {
            clock.wait_until(due);
            clock.now_ns() - due
        } else {
            0
        };
        let begin = clock.now_ns();
        let served = serve(i as u64, request);
        let end = clock.now_ns();
        if !check(served) {
            out.failed += 1;
        }
        out.latency_us.push((end - due) as f64 * 1e-3);
        out.wait_us.push((begin - due) as f64 * 1e-3);
        out.late_us.push(late as f64 * 1e-3);
        out.final_backlog_us = (end - due) as f64 * 1e-3;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    /// Simulated time shared with the test's server: waiting jumps the
    /// clock to the due time, serving advances it by the service time.
    struct SimClock<'a>(&'a Cell<u64>);

    impl Clock for SimClock<'_> {
        fn now_ns(&mut self) -> u64 {
            self.0.get()
        }
        fn wait_until(&mut self, t_ns: u64) {
            self.0.set(self.0.get().max(t_ns));
        }
    }

    #[test]
    fn schedule_is_determined_by_the_seed() {
        let make = |seed| {
            let mut rng = Rng::new(seed);
            let zipf = Zipf::new(500, 1.1, &mut rng);
            poisson_schedule(&mut rng, &zipf, 5000.0, 2000)
        };
        assert_eq!(make(7), make(7));
        assert_ne!(make(7), make(8));
        let s = make(7);
        assert!(s.windows(2).all(|w| w[0].due_ns <= w[1].due_ns));
        // Mean inter-arrival of a 5000/s Poisson process is 200 us.
        let mean_gap_us = s.last().unwrap().due_ns as f64 * 1e-3 / s.len() as f64;
        assert!((mean_gap_us - 200.0).abs() < 20.0, "{mean_gap_us}");
    }

    #[test]
    fn zipf_concentrates_on_few_items() {
        let mut rng = Rng::new(3);
        let zipf = Zipf::new(1000, 1.1, &mut rng);
        let mut counts = vec![0usize; 1000];
        for _ in 0..20_000 {
            counts[zipf.draw(&mut rng)] += 1;
        }
        counts.sort_unstable_by(|a, b| b.cmp(a));
        let top10: usize = counts[..10].iter().sum();
        assert!(top10 > 20_000 / 3, "top 10 items drew {top10}");
    }

    #[test]
    fn latency_counts_from_due_time_so_a_stall_delays_the_queue() {
        // Requests due every 100 us; each takes 10 us except request 3,
        // which stalls for 1000 us.
        let schedule: Vec<Request> =
            (0..20).map(|i| Request { due_ns: i * 100_000, item: 0 }).collect();
        let mut cost = [10_000u64; 20];
        cost[3] = 1_000_000;
        let clock = Cell::new(0u64);
        let r = run_open_loop(
            &schedule,
            0,
            &mut SimClock(&clock),
            |i, _| clock.set(clock.get() + cost[i as usize]),
            |()| true,
        );
        let lat = |i: usize| r.latency_us[i];
        assert_eq!(lat(2), 10.0);
        assert_eq!(lat(3), 1000.0);
        // Request 4 was due at 400 us but the server was busy until
        // 1300 us: it waits 900 us and completes at 1310 us.
        assert_eq!(r.wait_us[4], 900.0);
        assert_eq!(lat(4), 910.0);
        // Every queued request inherits the stall, 90 us less each time.
        for i in 5..=13 {
            assert_eq!(lat(i), lat(i - 1) - 90.0, "request {i}");
            assert_eq!(r.late_us[i], 0.0);
        }
        // The backlog has drained when request 14 falls due at 1400 us.
        assert_eq!(r.wait_us[14], 0.0);
        assert_eq!(lat(14), 10.0);
        assert_eq!(r.final_backlog_us, 10.0);
    }

    #[test]
    fn failures_are_counted_and_idle_lateness_is_measured() {
        struct LateClock(u64);
        impl Clock for LateClock {
            fn now_ns(&mut self) -> u64 {
                self.0
            }
            fn wait_until(&mut self, t_ns: u64) {
                // Wakes 5 us after the due time.
                self.0 = self.0.max(t_ns + 5_000);
            }
        }
        let schedule: Vec<Request> =
            (1..=4).map(|i| Request { due_ns: i * 100_000, item: 0 }).collect();
        let r = run_open_loop(&schedule, 0, &mut LateClock(0), |i, _| i, |i| i != 2);
        assert_eq!(r.failed, 1);
        assert!(r.late_us.iter().all(|&l| l == 5.0));
        assert!(r.latency_us.iter().all(|&l| l == 5.0));
    }
}
