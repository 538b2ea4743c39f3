//! Reply predictors for call streaming.
//!
//! Call streaming needs a *prediction* of the reply; the paper leaves the
//! verification criterion — and therefore the prediction source — entirely
//! to the programmer ("any user-programmed criteria", selectable at run
//! time). This module provides the common strategies:
//!
//! * [`ConstantPredictor`] — always predict a fixed value (e.g. "ok"),
//! * [`LastValuePredictor`] — predict whatever the same method returned
//!   last time (temporal locality, the classic RPC-result cache),
//! * [`FunctionPredictor`] — compute the prediction from the request (an
//!   application-provided model of the server).
//!
//! [`PredictiveClient::call`] ties a predictor to the streaming client:
//! with a prediction available it streams (wait-free); without one it
//! falls back to a synchronous call and feeds the observation back.
//!
//! Predictor state lives *inside* the process body, so rollback re-
//! execution rebuilds it deterministically like any other local state.

use bytes::Bytes;
use hope_core::ProcessCtx;
use hope_types::ProcessId;
use std::collections::BTreeMap;

use crate::client::RpcClient;
use crate::streaming::{ReplyPromise, StreamingClient};

/// A source of reply predictions.
///
/// `predict` may decline (return `None`), in which case the caller pays
/// the synchronous round trip; `observe` feeds actual replies back so the
/// predictor can learn.
pub trait Predictor {
    /// Predicts the reply for `method(body)`, or `None` to decline.
    fn predict(&mut self, method: u32, body: &Bytes) -> Option<Bytes>;

    /// Records an actual reply for future predictions.
    fn observe(&mut self, method: u32, body: &Bytes, reply: &Bytes);
}

/// Always predicts the same value — ideal for calls whose reply is almost
/// always a fixed acknowledgement.
#[derive(Debug, Clone)]
pub struct ConstantPredictor {
    value: Bytes,
}

impl ConstantPredictor {
    /// Predict `value` for every call.
    pub fn new(value: Bytes) -> Self {
        ConstantPredictor { value }
    }
}

impl Predictor for ConstantPredictor {
    fn predict(&mut self, _method: u32, _body: &Bytes) -> Option<Bytes> {
        Some(self.value.clone())
    }
    fn observe(&mut self, _method: u32, _body: &Bytes, _reply: &Bytes) {}
}

/// Predicts the reply most recently observed for the same method
/// (ignoring the body). Declines until it has seen one reply.
///
/// Backed by a `BTreeMap` so the cache has a deterministic shape: the
/// predictor lives inside a process body and is rebuilt by rollback
/// re-execution, where any iteration-order dependence would diverge.
#[derive(Debug, Clone, Default)]
pub struct LastValuePredictor {
    last: BTreeMap<u32, Bytes>,
}

impl LastValuePredictor {
    /// An empty cache.
    pub fn new() -> Self {
        LastValuePredictor::default()
    }
}

impl Predictor for LastValuePredictor {
    fn predict(&mut self, method: u32, _body: &Bytes) -> Option<Bytes> {
        self.last.get(&method).cloned()
    }
    fn observe(&mut self, method: u32, _body: &Bytes, reply: &Bytes) {
        self.last.insert(method, reply.clone());
    }
}

/// Predicts by running an application-supplied model of the server.
pub struct FunctionPredictor<F> {
    f: F,
}

impl<F> FunctionPredictor<F>
where
    F: FnMut(u32, &Bytes) -> Option<Bytes>,
{
    /// Wraps the model function.
    pub fn new(f: F) -> Self {
        FunctionPredictor { f }
    }
}

impl<F> Predictor for FunctionPredictor<F>
where
    F: FnMut(u32, &Bytes) -> Option<Bytes>,
{
    fn predict(&mut self, method: u32, body: &Bytes) -> Option<Bytes> {
        (self.f)(method, body)
    }
    fn observe(&mut self, _method: u32, _body: &Bytes, _reply: &Bytes) {}
}

/// A client that streams when its predictor offers a prediction and falls
/// back to synchronous RPC when it declines, feeding observations back
/// either way.
pub struct PredictiveClient<P> {
    server: ProcessId,
    predictor: P,
}

/// What a [`PredictiveClient::call`] did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CallOutcome {
    /// The call streamed and the prediction held: no waiting at all.
    Predicted,
    /// The call streamed but the prediction was wrong: rolled back, paid
    /// the round trip after all.
    Mispredicted,
    /// The predictor declined; a synchronous call was made.
    Synchronous,
}

impl<P: Predictor> PredictiveClient<P> {
    /// Binds a predictor to a server.
    pub fn new(server: ProcessId, predictor: P) -> Self {
        PredictiveClient { server, predictor }
    }

    /// Calls `method(body)`, streaming when possible.
    pub fn call(
        &mut self,
        ctx: &mut ProcessCtx<'_>,
        method: u32,
        body: Bytes,
    ) -> (Bytes, CallOutcome) {
        match self.predictor.predict(method, &body) {
            Some(predicted) => {
                let promise: ReplyPromise =
                    StreamingClient::call(ctx, self.server, method, body.clone(), predicted);
                let (reply, was_predicted) = promise.redeem(ctx);
                self.predictor.observe(method, &body, &reply);
                let outcome = if was_predicted {
                    CallOutcome::Predicted
                } else {
                    CallOutcome::Mispredicted
                };
                (reply, outcome)
            }
            None => {
                let reply = RpcClient::call(ctx, self.server, method, body.clone());
                self.predictor.observe(method, &body, &reply);
                (reply, CallOutcome::Synchronous)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_predictor_always_predicts() {
        let mut p = ConstantPredictor::new(Bytes::from_static(b"ok"));
        assert_eq!(p.predict(1, &Bytes::new()), Some(Bytes::from_static(b"ok")));
        p.observe(1, &Bytes::new(), &Bytes::from_static(b"other"));
        assert_eq!(
            p.predict(1, &Bytes::new()),
            Some(Bytes::from_static(b"ok")),
            "constant ignores observations"
        );
    }

    #[test]
    fn last_value_predictor_learns_per_method() {
        let mut p = LastValuePredictor::new();
        assert_eq!(p.predict(1, &Bytes::new()), None, "declines when cold");
        p.observe(1, &Bytes::new(), &Bytes::from_static(b"a"));
        p.observe(2, &Bytes::new(), &Bytes::from_static(b"b"));
        assert_eq!(p.predict(1, &Bytes::new()), Some(Bytes::from_static(b"a")));
        assert_eq!(p.predict(2, &Bytes::new()), Some(Bytes::from_static(b"b")));
        p.observe(1, &Bytes::new(), &Bytes::from_static(b"a2"));
        assert_eq!(p.predict(1, &Bytes::new()), Some(Bytes::from_static(b"a2")));
    }

    #[test]
    fn function_predictor_models_the_server() {
        let mut p = FunctionPredictor::new(|method, body: &Bytes| {
            if method == 7 {
                Some(Bytes::from(vec![body[0] * 2]))
            } else {
                None
            }
        });
        assert_eq!(
            p.predict(7, &Bytes::from_static(&[21])),
            Some(Bytes::from_static(&[42]))
        );
        assert_eq!(p.predict(8, &Bytes::from_static(&[21])), None);
    }
}
