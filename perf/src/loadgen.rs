//! The load generator: one thread, open loop or closed loop, over a
//! [`Wire`] — the real one is two `NetClient` connections multiplexed with
//! epoll, the test one a virtual clock with an injectable stall.
//!
//! Open loop: request `i` is *due* at `i × interval` whether or not
//! earlier replies have arrived, and its latency is counted **from its due
//! time**, so a stall — of the server or of this generator — is charged to
//! every request it delays, not only to the one in flight. How late the
//! generator itself ran (send time − due time) is reported beside the
//! latencies so a slow generator cannot pass for a slow server.
//!
//! Closed loop: a fixed window of requests is kept in flight; the next
//! request goes out only when a reply comes back.

/// Nanoseconds since the phase began.
pub type Nanos = u64;

pub trait Wire {
    fn now(&self) -> Nanos;
    /// Issues request `i` (non-blocking).
    fn send(&mut self, i: usize) -> std::io::Result<()>;
    /// Waits until a reply arrives or the clock reaches `until`, whichever
    /// is first, and returns the requests answered meanwhile.
    fn poll(&mut self, until: Nanos) -> std::io::Result<Vec<usize>>;
}

/// Per-request times of one phase, indexed by request.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PhaseLog {
    pub due: Vec<Nanos>,
    pub sent: Vec<Nanos>,
    pub done: Vec<Nanos>,
}

impl PhaseLog {
    fn new(count: usize) -> PhaseLog {
        PhaseLog {
            due: vec![0; count],
            sent: vec![0; count],
            done: vec![0; count],
        }
    }

    /// Reply time minus due time: the latency a user on the schedule saw.
    pub fn latency_from_due(&self) -> Vec<Nanos> {
        self.done
            .iter()
            .zip(&self.due)
            .map(|(d, due)| d.saturating_sub(*due))
            .collect()
    }

    /// Send time minus due time: how late the generator ran.
    pub fn lateness(&self) -> Vec<Nanos> {
        self.sent
            .iter()
            .zip(&self.due)
            .map(|(s, due)| s.saturating_sub(*due))
            .collect()
    }

    /// Time of the last reply.
    #[cfg(test)]
    pub fn wall(&self) -> Nanos {
        self.done.iter().copied().max().unwrap_or(0)
    }
}

/// Sends `count` requests on a fixed schedule, one every `interval`
/// nanoseconds from the wire's current time, and waits for every reply.
pub fn open_loop(wire: &mut impl Wire, count: usize, interval: Nanos) -> std::io::Result<PhaseLog> {
    let origin = wire.now();
    let mut log = PhaseLog::new(count);
    for (i, due) in log.due.iter_mut().enumerate() {
        *due = origin + i as Nanos * interval;
    }
    let (mut next, mut answered) = (0, 0);
    while answered < count {
        while next < count && log.due[next] <= wire.now() {
            wire.send(next)?;
            log.sent[next] = wire.now();
            next += 1;
        }
        let until = log.due.get(next).copied().unwrap_or(Nanos::MAX);
        for i in wire.poll(until)? {
            log.done[i] = wire.now();
            answered += 1;
        }
    }
    Ok(log)
}

/// Sends `count` requests keeping `window` in flight; a request is due the
/// moment a slot frees, so due time and send time coincide.
pub fn closed_loop(wire: &mut impl Wire, count: usize, window: usize) -> std::io::Result<PhaseLog> {
    let mut log = PhaseLog::new(count);
    let (mut next, mut answered) = (0, 0);
    while answered < count {
        while next < count && next - answered < window {
            log.due[next] = wire.now();
            wire.send(next)?;
            log.sent[next] = log.due[next];
            next += 1;
        }
        for i in wire.poll(Nanos::MAX)? {
            log.done[i] = wire.now();
            answered += 1;
        }
    }
    Ok(log)
}

#[cfg(test)]
mod tests {
    use super::*;

    const MS: Nanos = 1_000_000;

    /// A virtual single server with a fixed service time; sending request
    /// `stall_at` blocks the generator for `stall` first.
    struct FakeWire {
        clock: Nanos,
        service: Nanos,
        server_free_at: Nanos,
        in_flight: Vec<(Nanos, usize)>,
        stall_at: usize,
        stall: Nanos,
    }

    impl FakeWire {
        fn new(service: Nanos, stall_at: usize, stall: Nanos) -> FakeWire {
            FakeWire {
                clock: 0,
                service,
                server_free_at: 0,
                in_flight: Vec::new(),
                stall_at,
                stall,
            }
        }
    }

    impl Wire for FakeWire {
        fn now(&self) -> Nanos {
            self.clock
        }

        fn send(&mut self, i: usize) -> std::io::Result<()> {
            if i == self.stall_at {
                self.clock += self.stall;
            }
            let start = self.server_free_at.max(self.clock);
            self.server_free_at = start + self.service;
            self.in_flight.push((self.server_free_at, i));
            Ok(())
        }

        fn poll(&mut self, until: Nanos) -> std::io::Result<Vec<usize>> {
            let first = self.in_flight.iter().map(|&(t, _)| t).min();
            match first {
                Some(t) if t <= until => {
                    self.clock = self.clock.max(t);
                    let (ready, waiting): (Vec<_>, Vec<_>) =
                        self.in_flight.iter().copied().partition(|&(d, _)| d <= t);
                    self.in_flight = waiting;
                    Ok(ready.into_iter().map(|(_, i)| i).collect())
                }
                _ => {
                    self.clock = self.clock.max(until);
                    Ok(Vec::new())
                }
            }
        }
    }

    #[test]
    fn open_loop_keeps_its_schedule_when_nothing_stalls() {
        let mut wire = FakeWire::new(MS / 5, usize::MAX, 0);
        let log = open_loop(&mut wire, 20, MS).unwrap();
        assert!(log.lateness().iter().all(|&l| l == 0));
        assert!(log.latency_from_due().iter().all(|&l| l == MS / 5));
        assert_eq!(log.wall(), 19 * MS + MS / 5);
    }

    #[test]
    fn a_stall_is_charged_to_every_request_it_delays() {
        // The generator blocks for 10 ms while sending request 5.
        let mut wire = FakeWire::new(MS / 5, 5, 10 * MS);
        let log = open_loop(&mut wire, 30, MS).unwrap();
        let from_due = log.latency_from_due();
        let late = log.lateness();
        // Requests due before the stall are untouched.
        assert!(from_due[..5].iter().all(|&l| l == MS / 5));
        // Request 5 waited out the whole stall; request 10, due 5 ms into
        // it, still waited 5 ms plus the backlog ahead of it — although
        // measured from its *send* time it would look almost instant.
        assert_eq!(from_due[5], 10 * MS + MS / 5);
        assert_eq!(late[10], 5 * MS);
        assert_eq!(from_due[10], 5 * MS + 6 * (MS / 5));
        assert!(log.done[10] - log.sent[10] < 2 * MS);
        // Once the backlog drains the schedule is met again.
        assert_eq!(late[29], 0);
        assert_eq!(from_due[29], MS / 5);
    }

    #[test]
    fn closed_loop_never_exceeds_its_window() {
        let mut wire = FakeWire::new(MS, usize::MAX, 0);
        let log = closed_loop(&mut wire, 12, 4).unwrap();
        // One server, 1 ms each: 12 requests take 12 ms whatever the window.
        assert_eq!(log.wall(), 12 * MS);
        for i in 4..12 {
            // Request i went out when reply i-4 came back.
            assert_eq!(log.sent[i], log.done[i - 4]);
        }
    }
}
