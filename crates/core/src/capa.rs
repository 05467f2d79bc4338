//! CAPA: the Context Aware Printing Application (paper, Section 5).
//!
//! CAPA's distinguishing behaviours, reproduced here as a library state
//! machine so the examples, integration tests and benchmark all drive
//! the same code:
//!
//! * **offline queueing** — "as he is not currently within a range, the
//!   application stores the query for future use";
//! * **deferred submission** — on connection the stored query is
//!   submitted with an On-Enter trigger ("printed to the closest printer
//!   when I reach Room L10.01");
//! * **qualitative selection** — the Which clause encodes "closest",
//!   optionally filtered by "no queue", while usability (paper loaded,
//!   door access) is a filter over live printer attributes;
//! * **service invocation** — the advertisement answer names the printer
//!   CE to send documents to.

use sci_query::{Mode, Predicate, Query, Subject, When, Where};
use sci_types::{Advertisement, ContextValue, EntityKind, Guid, SciError, SciResult};

use crate::context_server::QueryAnswer;

/// A document the user wants printed.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct QueuedDocument {
    /// Document name.
    pub name: String,
    /// Page count.
    pub pages: u32,
}

/// Application state.
#[derive(Clone, PartialEq, Debug)]
pub enum CapaState {
    /// Not connected to any range ("currently not in a range").
    Offline,
    /// Connected; the print query has been submitted and is waiting for
    /// its trigger or answer.
    Waiting {
        /// The submitted query id.
        query: Guid,
    },
    /// A printer has been selected; jobs can be sent.
    Ready {
        /// The selected printer's advertisement.
        printer: Advertisement,
    },
}

/// The CAPA application.
#[derive(Clone, Debug)]
pub struct CapaApp {
    user: Guid,
    app: Guid,
    documents: Vec<QueuedDocument>,
    target_place: Option<String>,
    require_no_queue: bool,
    state: CapaState,
}

impl CapaApp {
    /// Creates CAPA for `user`, running as application entity `app`.
    pub fn new(user: Guid, app: Guid) -> Self {
        CapaApp {
            user,
            app,
            documents: Vec::new(),
            target_place: None,
            require_no_queue: false,
            state: CapaState::Offline,
        }
    }

    /// The owning user.
    pub fn user(&self) -> Guid {
        self.user
    }

    /// Current state.
    pub fn state(&self) -> &CapaState {
        &self.state
    }

    /// Queued documents (not yet sent to a printer).
    pub fn documents(&self) -> &[QueuedDocument] {
        &self.documents
    }

    /// Queues a document while offline or online.
    pub fn queue_document(&mut self, name: impl Into<String>, pages: u32) {
        self.documents.push(QueuedDocument {
            name: name.into(),
            pages,
        });
    }

    /// Bob's request: print to the closest printer once the user reaches
    /// `place`. Stored until [`CapaApp::on_connected`].
    pub fn print_when_at(&mut self, place: impl Into<String>) {
        self.target_place = Some(place.into());
        self.require_no_queue = false;
    }

    /// John's request: print now, to the closest printer with no queue.
    pub fn print_now(&mut self) {
        self.target_place = None;
        self.require_no_queue = true;
    }

    /// Builds the stored query. The Which clause asks for the closest
    /// usable printer: paper loaded, and — for the "no queue" variant —
    /// an empty queue. Access control (locked doors) is expressed as a
    /// filter on the printer's `restricted` attribute unless the user is
    /// on its key list; restricted printers are simply not considered
    /// for users without keys, which the Context Server evaluates
    /// against live printer attributes.
    fn build_query(&self, query_id: Guid) -> Query {
        // "Closest" is relative to the *user* ("closest printer to
        // Bob"), so the Where clause names them; the place constraint
        // lives in the When trigger ("when he reaches Room L10.01").
        let mut builder = Query::builder(query_id, self.app)
            .kind(EntityKind::Device)
            .attr_eq("service", "printing")
            .attr_true("paper")
            .filter(Predicate::eq("restricted", ContextValue::Bool(false)))
            .where_(Where::ClosestTo(Subject::Entity(self.user)))
            .closest()
            .mode(Mode::Advertisement);
        if self.require_no_queue {
            builder = builder.attr_int_at_most("queue", 0);
        }
        if let Some(place) = &self.target_place {
            builder = builder.when(When::OnEnter {
                entity: Subject::Entity(self.user),
                place: place.clone(),
            });
        }
        builder.build()
    }

    /// Called when the device is detected by a range: submits the stored
    /// query through the given submission function (local CS or
    /// federation). Returns the query id.
    ///
    /// # Errors
    ///
    /// * [`SciError::BadInvocation`] if nothing was requested.
    /// * Submission errors from the infrastructure.
    pub fn on_connected<F>(&mut self, query_id: Guid, mut submit: F) -> SciResult<Guid>
    where
        F: FnMut(&Query) -> SciResult<QueryAnswer>,
    {
        if self.target_place.is_none() && !self.require_no_queue {
            return Err(SciError::BadInvocation(
                "no print request stored; call print_when_at or print_now".into(),
            ));
        }
        let query = self.build_query(query_id);
        let answer = submit(&query)?;
        match answer {
            QueryAnswer::Deferred => {
                self.state = CapaState::Waiting { query: query_id };
                Ok(query_id)
            }
            other => {
                self.absorb_answer(other)?;
                Ok(query_id)
            }
        }
    }

    /// Feeds an answer (immediate or deferred) into the application.
    ///
    /// # Errors
    ///
    /// Returns [`SciError::Unresolvable`] when no printer was selected.
    pub fn absorb_answer(&mut self, answer: QueryAnswer) -> SciResult<()> {
        match answer {
            QueryAnswer::Advertisements(ads) => {
                let printer = ads
                    .into_iter()
                    .next()
                    .ok_or_else(|| SciError::Unresolvable("no printer advertised".into()))?;
                self.state = CapaState::Ready { printer };
                Ok(())
            }
            QueryAnswer::Deferred => Ok(()),
            QueryAnswer::Profiles(ps) if ps.is_empty() => Err(SciError::Unresolvable(
                "deferred print query produced no printer".into(),
            )),
            other => Err(SciError::BadInvocation(format!(
                "CAPA expected an advertisement answer, got {other:?}"
            ))),
        }
    }

    /// Once a printer is selected, drains the queued documents as
    /// `(printer GUID, document)` submissions for the caller to deliver
    /// through the printer's service interface.
    ///
    /// # Errors
    ///
    /// Returns [`SciError::BadInvocation`] when no printer is selected
    /// yet.
    pub fn release_jobs(&mut self) -> SciResult<(Guid, Vec<QueuedDocument>)> {
        match &self.state {
            CapaState::Ready { printer } => {
                Ok((printer.provider(), std::mem::take(&mut self.documents)))
            }
            _ => Err(SciError::BadInvocation("no printer selected yet".into())),
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    fn app() -> CapaApp {
        CapaApp::new(Guid::from_u128(0xb0b), Guid::from_u128(0xa99))
    }

    #[test]
    fn offline_queueing_and_deferred_submission() {
        let mut capa = app();
        capa.queue_document("slides.pdf", 12);
        capa.queue_document("notes.pdf", 3);
        capa.print_when_at("L10.01");
        assert_eq!(capa.state(), &CapaState::Offline);
        assert_eq!(capa.documents().len(), 2);

        // The stored query is deferred with an on-enter trigger.
        let qid = Guid::from_u128(1);
        let mut seen_query = None;
        capa.on_connected(qid, |q| {
            seen_query = Some(q.clone());
            Ok(QueryAnswer::Deferred)
        })
        .unwrap();
        let q = seen_query.unwrap();
        assert!(matches!(
            q.when,
            When::OnEnter { entity: Subject::Entity(u), ref place }
                if u == Guid::from_u128(0xb0b) && place == "L10.01"
        ));
        assert_eq!(q.mode, Mode::Advertisement);
        assert_eq!(capa.state(), &CapaState::Waiting { query: qid });

        // The trigger fires and an advertisement arrives.
        let ad = Advertisement::new(Guid::from_u128(0xf1), "printing");
        capa.absorb_answer(QueryAnswer::Advertisements(vec![ad.clone()]))
            .unwrap();
        assert!(matches!(capa.state(), CapaState::Ready { .. }));
        let (printer, docs) = capa.release_jobs().unwrap();
        assert_eq!(printer, Guid::from_u128(0xf1));
        assert_eq!(docs.len(), 2);
        assert!(capa.documents().is_empty());
    }

    #[test]
    fn print_now_requires_empty_queue() {
        let mut capa = app();
        capa.print_now();
        let mut seen = None;
        capa.on_connected(Guid::from_u128(2), |q| {
            seen = Some(q.clone());
            Ok(QueryAnswer::Advertisements(vec![Advertisement::new(
                Guid::from_u128(0xf4),
                "printing",
            )]))
        })
        .unwrap();
        let q = seen.unwrap();
        let xml = sci_query::codec::to_xml(&q);
        assert!(xml.contains("queue"), "no-queue filter present: {xml}");
        assert!(matches!(capa.state(), CapaState::Ready { .. }));
    }

    #[test]
    fn misuse_errors() {
        let mut capa = app();
        assert!(capa.release_jobs().is_err(), "no printer yet");
        assert!(
            capa.on_connected(Guid::from_u128(3), |_| Ok(QueryAnswer::Deferred))
                .is_err(),
            "nothing requested"
        );
        capa.print_now();
        assert!(capa
            .absorb_answer(QueryAnswer::Profiles(Vec::new()))
            .is_err());
    }
}
