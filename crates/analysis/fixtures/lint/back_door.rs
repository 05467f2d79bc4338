//! Seeded-violation fixture for SCI-A304: a helper outside the range
//! dispatcher that changes a Context Server without a command, so the
//! range's log never hears of it. Two calls must fire; the marked
//! drain, the public wrapper and the test module must not.

pub fn repair(cs: &mut ContextServer, failed: Guid, event: &ContextEvent, now: VirtualTime) {
    cs.mark_failed(failed);
    let _ = cs.ingest_impl(event, now);
    let _ = cs.ingest(event, now);
    let queued = cs.drain_outbox_impl(); // sci-lint: allow(back-door): drains are not logged
    drop(queued);
}

#[cfg(test)]
mod tests {
    #[test]
    fn tests_may_reach_inside() {
        cs.register_impl(profile, now);
    }
}
