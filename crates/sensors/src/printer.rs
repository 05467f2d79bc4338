//! Simulated printers.
//!
//! CAPA (paper, Section 5) selects among printers whose relevant state
//! is: queue length ("P1 is currently being used by Bob"), consumables
//! ("P2 is unavailable due to being out of paper") and accessibility
//! ("P3 is behind a locked door to which John has no access"). A
//! [`Printer`] models all three, consumes queued jobs at a configurable
//! page rate, and emits a [`ContextType::PrinterStatus`] event whenever
//! its externally visible state changes.

use std::collections::VecDeque;

use sci_types::{
    ContextEvent, ContextType, ContextValue, EventSeq, Guid, VirtualDuration, VirtualTime,
};

/// Who may collect output from a printer.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Access {
    /// Anyone.
    Public,
    /// Only the listed people (the printer is behind a locked door).
    Restricted(Vec<Guid>),
}

impl Access {
    /// Returns `true` if `user` may use the printer.
    pub fn allows(&self, user: Guid) -> bool {
        match self {
            Access::Public => true,
            Access::Restricted(users) => users.contains(&user),
        }
    }
}

/// A queued print job.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct PrintJob {
    /// Job id.
    pub id: Guid,
    /// Submitting user.
    pub owner: Guid,
    /// Document name.
    pub document: String,
    /// Pages remaining to print.
    pub pages_left: u32,
}

impl PrintJob {
    /// Creates a job.
    pub fn new(id: Guid, owner: Guid, document: impl Into<String>, pages: u32) -> Self {
        PrintJob {
            id,
            owner,
            document: document.into(),
            pages_left: pages,
        }
    }
}

/// A simulated printer.
#[derive(Clone, Debug)]
pub struct Printer {
    id: Guid,
    name: String,
    room: String,
    queue: VecDeque<PrintJob>,
    has_paper: bool,
    access: Access,
    pages_per_sec: f64,
    page_credit: f64,
    completed: Vec<PrintJob>,
    seq: EventSeq,
}

impl Printer {
    /// Creates a public printer with paper printing 1 page/s.
    pub fn new(id: Guid, name: impl Into<String>, room: impl Into<String>) -> Self {
        Printer {
            id,
            name: name.into(),
            room: room.into(),
            queue: VecDeque::new(),
            has_paper: true,
            access: Access::Public,
            pages_per_sec: 1.0,
            page_credit: 0.0,
            completed: Vec::new(),
            seq: EventSeq::FIRST,
        }
    }

    /// Restricts access (builder style).
    pub fn with_access(mut self, access: Access) -> Self {
        self.access = access;
        self
    }

    /// Starts the printer out of paper (builder style).
    pub fn out_of_paper(mut self) -> Self {
        self.has_paper = false;
        self
    }

    /// Sets the printing speed (builder style).
    ///
    /// # Panics
    ///
    /// Panics unless the speed is finite and positive.
    pub fn with_speed(mut self, pages_per_sec: f64) -> Self {
        assert!(
            pages_per_sec.is_finite() && pages_per_sec > 0.0,
            "printing speed must be positive"
        );
        self.pages_per_sec = pages_per_sec;
        self
    }

    /// The printer's entity GUID.
    pub fn id(&self) -> Guid {
        self.id
    }

    /// The printer's name ("P1").
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The room the printer is in.
    pub fn room(&self) -> &str {
        &self.room
    }

    /// Queue length, including the job being printed.
    pub fn queue_len(&self) -> usize {
        self.queue.len()
    }

    /// Whether paper is loaded.
    pub fn has_paper(&self) -> bool {
        self.has_paper
    }

    /// The access policy.
    pub fn access(&self) -> &Access {
        &self.access
    }

    /// Jobs completed so far, in completion order.
    pub fn completed(&self) -> &[PrintJob] {
        &self.completed
    }

    /// Whether the printer can accept and eventually finish a job from
    /// `user` right now.
    pub fn usable_by(&self, user: Guid) -> bool {
        self.has_paper && self.access.allows(user)
    }

    /// Enqueues a job and returns the updated status event.
    pub fn submit(&mut self, job: PrintJob, now: VirtualTime) -> ContextEvent {
        self.queue.push_back(job);
        self.status_event(now)
    }

    /// Removes the paper (failure injection); returns a status event.
    pub fn jam_out_of_paper(&mut self, now: VirtualTime) -> ContextEvent {
        self.has_paper = false;
        self.status_event(now)
    }

    /// Advances printing by `dt`. Emits a status event if the externally
    /// visible state changed (queue length or completion).
    pub fn tick(&mut self, now: VirtualTime, dt: VirtualDuration) -> Vec<ContextEvent> {
        if !self.has_paper || self.queue.is_empty() {
            return Vec::new();
        }
        self.page_credit += self.pages_per_sec * dt.as_micros() as f64 / 1_000_000.0;
        let mut changed = false;
        while self.page_credit >= 1.0 {
            let Some(front) = self.queue.front_mut() else {
                break;
            };
            front.pages_left -= 1;
            self.page_credit -= 1.0;
            if front.pages_left == 0 {
                let done = self.queue.pop_front().expect("front exists");
                self.completed.push(done);
                changed = true;
            }
        }
        if changed {
            vec![self.status_event(now)]
        } else {
            Vec::new()
        }
    }

    /// The current status as a context value (also the payload of status
    /// events). Fields: `printer`, `name`, `room`, `queue`, `paper`,
    /// `restricted`.
    fn status_value(&self) -> ContextValue {
        ContextValue::record([
            ("printer", ContextValue::Id(self.id)),
            ("name", ContextValue::text(self.name.clone())),
            ("room", ContextValue::place(self.room.clone())),
            ("queue", ContextValue::Int(self.queue.len() as i64)),
            ("paper", ContextValue::Bool(self.has_paper)),
            (
                "restricted",
                ContextValue::Bool(matches!(self.access, Access::Restricted(_))),
            ),
        ])
    }

    /// Builds a status event at `now`.
    fn status_event(&mut self, now: VirtualTime) -> ContextEvent {
        let seq = self.seq;
        self.seq = seq.next();
        ContextEvent::new(
            self.id,
            ContextType::PrinterStatus,
            self.status_value(),
            now,
        )
        .with_seq(seq)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn printer() -> Printer {
        Printer::new(Guid::from_u128(0xf1), "P1", "bay")
    }

    #[test]
    fn prints_jobs_in_fifo_order() {
        let mut p = printer().with_speed(2.0);
        let now = VirtualTime::ZERO;
        p.submit(
            PrintJob::new(Guid::from_u128(1), Guid::from_u128(9), "a.pdf", 2),
            now,
        );
        p.submit(
            PrintJob::new(Guid::from_u128(2), Guid::from_u128(9), "b.pdf", 2),
            now,
        );
        assert_eq!(p.queue_len(), 2);
        // 2 pages/s * 1 s = first job done.
        let events = p.tick(VirtualTime::from_secs(1), VirtualDuration::from_secs(1));
        assert_eq!(events.len(), 1);
        assert_eq!(p.queue_len(), 1);
        assert_eq!(p.completed()[0].document, "a.pdf");
        p.tick(VirtualTime::from_secs(2), VirtualDuration::from_secs(1));
        assert_eq!(p.completed().len(), 2);
        assert_eq!(p.completed()[1].document, "b.pdf");
    }

    #[test]
    fn out_of_paper_stalls_printing() {
        let mut p = printer();
        p.submit(
            PrintJob::new(Guid::from_u128(1), Guid::from_u128(9), "x", 1),
            VirtualTime::ZERO,
        );
        p.jam_out_of_paper(VirtualTime::ZERO);
        assert!(p
            .tick(VirtualTime::from_secs(10), VirtualDuration::from_secs(10))
            .is_empty());
        assert_eq!(p.queue_len(), 1);
    }

    #[test]
    fn access_control_matches_capa() {
        let john = Guid::from_u128(1);
        let staff = Guid::from_u128(2);
        let p3 = Printer::new(Guid::from_u128(0xf3), "P3", "L10.03")
            .with_access(Access::Restricted(vec![staff]));
        assert!(!p3.usable_by(john), "locked door: no access for John");
        assert!(p3.usable_by(staff));
        let p2 = Printer::new(Guid::from_u128(0xf2), "P2", "corridor").out_of_paper();
        assert!(!p2.usable_by(john), "no paper: unusable");
    }

    #[test]
    fn status_value_reflects_state() {
        let mut p = printer();
        p.submit(
            PrintJob::new(Guid::from_u128(1), Guid::from_u128(9), "x", 3),
            VirtualTime::ZERO,
        );
        let v = p.status_value();
        assert_eq!(v.field("queue").and_then(ContextValue::as_int), Some(1));
        assert_eq!(v.field("paper").and_then(ContextValue::as_bool), Some(true));
        assert_eq!(
            v.field("restricted").and_then(ContextValue::as_bool),
            Some(false)
        );
        assert_eq!(
            v.field("room").and_then(|r| r.as_text().map(str::to_owned)),
            Some("bay".to_owned())
        );
    }

    #[test]
    fn status_events_number_sequentially() {
        let mut p = printer();
        let e1 = p.status_event(VirtualTime::ZERO);
        let e2 = p.status_event(VirtualTime::ZERO);
        assert_eq!(e2.seq, e1.seq.next());
        assert_eq!(e1.topic, ContextType::PrinterStatus);
    }

    #[test]
    fn slow_printer_needs_multiple_ticks() {
        let mut p = printer().with_speed(0.5);
        p.submit(
            PrintJob::new(Guid::from_u128(1), Guid::from_u128(9), "x", 1),
            VirtualTime::ZERO,
        );
        assert!(p
            .tick(VirtualTime::from_secs(1), VirtualDuration::from_secs(1))
            .is_empty());
        let done = p.tick(VirtualTime::from_secs(2), VirtualDuration::from_secs(1));
        assert_eq!(done.len(), 1);
    }
}
