//! Range command-protocol data: the answer and reply values a Range's
//! runtime returns to whoever drives it.
//!
//! The Context Server is "centralised per range, decentralised across
//! ranges" (paper, Section 3). The per-range centralisation is realised
//! as an actor: a single-writer runtime loop owns the server and
//! processes a stream of commands from a mailbox. The *command* side of
//! the protocol carries queries and logic factories and therefore lives
//! upstack (`sci-core::runtime::RangeCommand`); the *reply* side is pure
//! data model — profiles, advertisements, events, reports — and is
//! defined here so every layer (core, overlay drivers, benches) can
//! speak it without depending on the query engine.

use crate::advertisement::Advertisement;
use crate::diagnostic::AnalysisReport;
use crate::entity::EntityDescriptor;
use crate::event::ContextEvent;
use crate::guid::Guid;
use crate::profile::Profile;
use crate::time::{VirtualDuration, VirtualTime};

/// The answer to a submitted query.
#[derive(Clone, Debug)]
pub enum QueryAnswer {
    /// Mode `profile`: the matching profiles.
    Profiles(Vec<Profile>),
    /// Mode `advertisement`: the selected services' interfaces.
    Advertisements(Vec<Advertisement>),
    /// Modes `subscribe`/`subscribe-once`: a configuration is live;
    /// events will arrive in the application outbox.
    Subscribed {
        /// The query (= configuration) id.
        configuration: Guid,
        /// The producers the application is now subscribed to.
        producers: Vec<Guid>,
    },
    /// The query waits for its When clause; the answer will appear in
    /// the range's deferred-answer drain once triggered.
    Deferred,
    /// The Where clause names another range; federation must forward.
    Forward {
        /// Target range name.
        range: String,
    },
    /// Graceful degradation: part of the answer could not be produced
    /// because a producing range was unreachable or down. Carries what
    /// *is* known plus degraded quality-of-context metadata, so
    /// applications can distinguish "nothing matched" from "somebody
    /// could not be asked".
    Partial {
        /// What could still be answered (often the pending
        /// [`QueryAnswer::Forward`] that failed to travel).
        answer: Box<QueryAnswer>,
        /// The range that could not be consulted.
        missing_range: String,
        /// Why: `unroutable` (overlay cannot reach it) or `range-down`
        /// (its worker died).
        reason: String,
    },
}

impl QueryAnswer {
    /// Is any part of this answer missing due to an unreachable range?
    pub fn is_degraded(&self) -> bool {
        matches!(self, QueryAnswer::Partial { .. })
    }
}

/// An event delivered to a Context Aware Application.
#[derive(Clone, Debug)]
pub struct AppDelivery {
    /// The receiving application.
    pub app: Guid,
    /// The query whose configuration produced the event.
    pub query: Guid,
    /// The event itself.
    pub event: ContextEvent,
}

/// A deferred answer: `(query, owner, answer)`.
pub type DeferredAnswer = (Guid, Guid, QueryAnswer);

/// What a source's failure did to one configuration it fed.
#[derive(Clone, Debug)]
pub struct RepairReport {
    /// The configuration's query id.
    pub query: Guid,
    /// The failed CE that was removed. Nothing is wired in to take its
    /// place: every survivor the wiring rule names was feeding the
    /// configuration already.
    pub failed: Guid,
    /// When the repair happened.
    pub at: VirtualTime,
    /// `true` if some edge was left without any producer.
    pub degraded: bool,
}

/// The result of processing one range command.
///
/// Every mutating Context Server entry point maps to exactly one reply
/// shape; drivers match on the variant they expect and treat anything
/// else as a protocol violation ([`crate::SciError::Internal`]).
#[derive(Clone, Debug)]
pub enum RangeReply {
    /// The command completed and produces no value (register, ingest,
    /// cancel, settings…).
    Ack,
    /// `Submit` answered.
    Answer(QueryAnswer),
    /// `Deregister` returned the departing entity's descriptor.
    Deregistered(EntityDescriptor),
    /// `IngestBatch` applied this many events.
    Ingested(usize),
    /// `PollTimers` fired this many deferred queries, and these
    /// liveness-tracked sources have been silent past their declared
    /// window (ascending GUID, with the silence observed) — a read:
    /// failing one is the caller's decision, issued as `Fail`.
    Fired {
        /// Deferred queries fired.
        fired: usize,
        /// Tracked sources silent past their window.
        silent: Vec<(Guid, VirtualDuration)>,
    },
    /// `Fail` rewired these configurations; empty when the CE fed none,
    /// or was already failed, departed or unknown.
    Repaired(Vec<RepairReport>),
    /// `ExpireHistory` evicted this many history entries.
    Expired(usize),
    /// `Audit`: the fleet drift report.
    Report(AnalysisReport),
    /// `MigrateOut`: the departing entity's packaged state, serialised
    /// with the workspace XML conventions so it can cross the overlay.
    Migrated(String),
}

impl RangeReply {
    /// A short name for the variant, used in protocol-violation errors.
    pub fn kind(&self) -> &'static str {
        match self {
            RangeReply::Ack => "ack",
            RangeReply::Answer(_) => "answer",
            RangeReply::Deregistered(_) => "deregistered",
            RangeReply::Ingested(_) => "ingested",
            RangeReply::Fired { .. } => "fired",
            RangeReply::Repaired(_) => "repaired",
            RangeReply::Expired(_) => "expired",
            RangeReply::Report(_) => "report",
            RangeReply::Migrated(_) => "migrated",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reply_kinds_are_distinct() {
        let kinds = [
            RangeReply::Ack.kind(),
            RangeReply::Answer(QueryAnswer::Deferred).kind(),
            RangeReply::Ingested(0).kind(),
            RangeReply::Fired {
                fired: 0,
                silent: Vec::new(),
            }
            .kind(),
            RangeReply::Repaired(Vec::new()).kind(),
            RangeReply::Expired(0).kind(),
            RangeReply::Report(AnalysisReport::new()).kind(),
            RangeReply::Migrated(String::new()).kind(),
        ];
        let mut dedup = kinds.to_vec();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), kinds.len());
    }

    #[test]
    fn partial_answers_flag_degradation() {
        let partial = QueryAnswer::Partial {
            answer: Box::new(QueryAnswer::Forward {
                range: "level-ten".into(),
            }),
            missing_range: "level-ten".into(),
            reason: "unroutable".into(),
        };
        assert!(partial.is_degraded());
        assert!(!QueryAnswer::Deferred.is_degraded());
    }

    #[test]
    fn reply_types_are_send() {
        fn assert_send<T: Send>() {}
        assert_send::<RangeReply>();
        assert_send::<QueryAnswer>();
        assert_send::<AppDelivery>();
    }
}
