//! One parse path for every engine.
//!
//! A caller picks what a parse runs under ([`ParseOptions`]: governor,
//! telemetry) and what it produces ([`Output`]: an owned tree, SAX
//! events, or a resilient parse). The interpreter, the bytecode machine
//! and every generated parser implement [`Engine`] over one private
//! driver each, so harnesses and front ends hold `&dyn Engine` and loop
//! instead of repeating per-engine code.
//!
//! The drivers share the engine-independent half of a parse: the checks
//! made before any work ([`preflight`]) and the root evaluation with its
//! outcome mapping ([`evaluate`]) over an engine's [`Evaluator`].

use modpeg_runtime::{
    recover, EventSink, Fail, Failures, Governor, Input, ParseAbort, ParseError, ParseFault,
    RecoverPolicy, Recovered, Span, Stats, SyntaxTree, Value,
};
use modpeg_telemetry::Telemetry;

/// What a parse runs under. The default parses ungoverned with inert
/// telemetry hooks.
#[derive(Debug, Clone, Copy, Default)]
pub struct ParseOptions<'a> {
    /// Resource limits: deadline, fuel, recursion depth, memo budget,
    /// cancellation. A governed run never overflows the stack (an unset
    /// depth limit falls back to
    /// [`DEFAULT_MAX_DEPTH`](modpeg_runtime::DEFAULT_MAX_DEPTH)); an
    /// over-budget memo evicts cold columns, then stops memoizing, and
    /// aborts only as a last resort. A tripped governor is sticky: reset
    /// it before reusing it.
    pub governor: Option<&'a Governor>,
    /// Telemetry hooks (production spans, memo traffic, backtracks,
    /// governor ticks and aborts).
    pub telemetry: Option<&'a Telemetry>,
}

impl<'a> ParseOptions<'a> {
    /// Options that parse under `gov`'s limits.
    ///
    /// # Examples
    ///
    /// ```
    /// use modpeg_core::{CharClass, Expr, GrammarBuilder, ProdKind};
    /// use modpeg_interp::{CompiledGrammar, Engine, OptConfig, ParseOptions};
    /// use modpeg_runtime::{Governor, ParseAbort};
    ///
    /// let mut b = GrammarBuilder::new("m");
    /// b.production("Word", ProdKind::Text, vec![(None, Expr::Capture(Box::new(
    ///     Expr::Plus(Box::new(Expr::Class(CharClass::from_ranges(
    ///         vec![('a', 'z')], false)))))))]);
    /// let grammar = b.build("Word")?;
    /// let parser = CompiledGrammar::compile(&grammar, OptConfig::all())?;
    ///
    /// let generous = Governor::new().with_fuel(10_000);
    /// assert!(parser.tree("hello", &ParseOptions::governed(&generous)).0.is_ok());
    ///
    /// let starved = Governor::new().with_fuel(0);
    /// let (result, _) = parser.tree("hello", &ParseOptions::governed(&starved));
    /// assert_eq!(result.unwrap_err().abort(), Some(ParseAbort::FuelExhausted));
    /// # Ok::<(), modpeg_core::Diagnostics>(())
    /// ```
    pub fn governed(gov: &'a Governor) -> Self {
        ParseOptions {
            governor: Some(gov),
            telemetry: None,
        }
    }

    /// These options with telemetry hooks reporting to `telem`.
    pub fn with_telemetry(self, telem: &'a Telemetry) -> Self {
        ParseOptions {
            telemetry: Some(telem),
            ..self
        }
    }
}

/// What a parse produces.
pub enum Output<'s> {
    /// An owned [`SyntaxTree`]; the root must consume the whole input.
    Tree,
    /// The semantic tree streamed to the sink as
    /// [`ParseEvent`](modpeg_runtime::ParseEvent)s straight from the
    /// parse region, with no owned tree built. The stream is a balanced
    /// pre-order walk: rebuilding it with a
    /// [`TreeBuilder`](modpeg_runtime::TreeBuilder) yields the tree
    /// [`Output::Tree`] would. Nothing is emitted for a failed parse.
    Events(&'s mut dyn EventSink),
    /// Panic-mode recovery under the policy: a failed region becomes a
    /// synthesized `$error` node and parsing resumes at the next
    /// synchronization byte, so the result is always a tree spanning the
    /// whole input plus the diagnostics for everything recovered from.
    /// One evaluator and one memo table live across all restart
    /// attempts. Syntax errors never fail such a parse; only an abort
    /// does.
    Resilient(&'s RecoverPolicy),
}

/// What a parse produced, matching the [`Output`] it was asked for.
#[derive(Debug)]
pub enum Parsed {
    /// For [`Output::Tree`].
    Tree(SyntaxTree),
    /// For [`Output::Events`]: the events went to the sink.
    Events,
    /// For [`Output::Resilient`].
    Recovered(Recovered<SyntaxTree>),
}

impl Parsed {
    /// The tree of a parse asked for [`Output::Tree`].
    ///
    /// # Panics
    ///
    /// Panics when the parse produced another output.
    pub fn into_tree(self) -> SyntaxTree {
        match self {
            Parsed::Tree(tree) => tree,
            other => panic!("asked for a tree, got {other:?}"),
        }
    }

    /// The result of a parse asked for [`Output::Resilient`].
    ///
    /// # Panics
    ///
    /// Panics when the parse produced another output.
    pub fn into_recovered(self) -> Recovered<SyntaxTree> {
        match self {
            Parsed::Recovered(rec) => rec,
            other => panic!("asked for a resilient parse, got {other:?}"),
        }
    }
}

/// A parsing engine: the interpreter ([`CompiledGrammar`]), the bytecode
/// machine, or a build-time generated parser.
///
/// All engines are observationally identical — same trees, verdicts,
/// farthest-failure offsets, recovery diagnostics, memo traffic and
/// governor ticks — which is what the conformance oracle checks by
/// iterating over `&dyn Engine`.
///
/// [`CompiledGrammar`]: crate::CompiledGrammar
pub trait Engine {
    /// Parses `text` under `opts`, producing `output`, and returns the
    /// run's [`Stats`].
    ///
    /// # Errors
    ///
    /// [`ParseFault::Syntax`] carries the farthest failure when the input
    /// does not match completely (never for [`Output::Resilient`]);
    /// [`ParseFault::Abort`] reports which governor limit stopped the
    /// run. An abort is not a verdict on the input: a larger budget may
    /// succeed.
    fn parse_with(
        &self,
        text: &str,
        opts: &ParseOptions<'_>,
        output: Output<'_>,
    ) -> (Result<Parsed, ParseFault>, Stats);

    /// The engine-shared recovery policy: restart and terminator sync
    /// sets from the source grammar's FIRST/FOLLOW analysis plus its
    /// `@recover(...)` annotations, with the default error budget.
    /// Identical across engines for the same grammar.
    fn recover_policy(&self) -> RecoverPolicy;

    /// [`Engine::parse_with`] producing an owned tree.
    ///
    /// # Errors
    ///
    /// As [`Engine::parse_with`].
    fn tree(&self, text: &str, opts: &ParseOptions<'_>) -> (Result<SyntaxTree, ParseFault>, Stats) {
        let (outcome, stats) = self.parse_with(text, opts, Output::Tree);
        (outcome.map(Parsed::into_tree), stats)
    }

    /// [`Engine::parse_with`] streaming events to `sink`.
    ///
    /// # Errors
    ///
    /// As [`Engine::parse_with`].
    fn events(
        &self,
        text: &str,
        opts: &ParseOptions<'_>,
        sink: &mut dyn EventSink,
    ) -> (Result<(), ParseFault>, Stats) {
        let (outcome, stats) = self.parse_with(text, opts, Output::Events(sink));
        (outcome.map(|_| ()), stats)
    }

    /// [`Engine::parse_with`] recovering from syntax errors under
    /// `policy`.
    ///
    /// # Errors
    ///
    /// Returns the abort kind when a governor limit stopped the run.
    fn resilient(
        &self,
        text: &str,
        opts: &ParseOptions<'_>,
        policy: &RecoverPolicy,
    ) -> (Result<Recovered<SyntaxTree>, ParseAbort>, Stats) {
        let (outcome, stats) = self.parse_with(text, opts, Output::Resilient(policy));
        let outcome = outcome.map(Parsed::into_recovered).map_err(|fault| {
            fault
                .abort()
                .expect("a resilient parse fails only by aborting")
        });
        (outcome, stats)
    }
}

/// One engine's evaluator over one input: the part of a parse that
/// differs between engines.
pub trait Evaluator {
    /// Evaluates the root production at `pos`. `fresh` resets the
    /// farthest-failure record first (a recovery restart after its
    /// failures became a diagnostic).
    ///
    /// # Errors
    ///
    /// `Fail` when the root does not match at `pos` (or the run aborted).
    fn eval_root(&mut self, pos: u32, fresh: bool) -> Result<(u32, Value), Fail>;

    /// The first abort the run observed.
    fn aborted(&self) -> Option<ParseAbort>;

    /// Records that the root stopped at `end`, short of the end of input.
    fn note_end(&mut self, end: u32);

    /// The farthest-failure error recorded so far.
    fn error(&self) -> ParseError;

    /// Detaches `value` from the run's region before it escapes into a
    /// [`SyntaxTree`].
    fn materialize(&self, value: Value) -> Value;

    /// Streams `value` to `sink` straight from the run's region.
    fn emit(&self, value: &Value, sink: &mut dyn EventSink);
}

/// The checks every engine makes before any work. Inputs of 4 GiB or
/// more are refused, because spans and memo positions are 32-bit; a
/// pre-cancelled or pre-expired governor aborts at once. `Some` is the
/// whole outcome of such a parse.
pub fn preflight(
    text: &str,
    opts: &ParseOptions<'_>,
    output: &Output<'_>,
) -> Option<Result<Parsed, ParseFault>> {
    if text.len() > u32::MAX as usize {
        let mut failures = Failures::new();
        failures.note(0, "input smaller than 4 GiB");
        let error = failures.to_error(&Input::new(""));
        return Some(match output {
            // A resilient parse never fails on its input: one truncated
            // diagnostic, an empty tree.
            Output::Resilient(_) => Ok(Parsed::Recovered(Recovered {
                tree: SyntaxTree::new("", Value::Unit),
                diagnostics: recover::Diagnostics {
                    errors: vec![recover::Diagnostic {
                        error,
                        skipped: Span::point(0),
                    }],
                    truncated: true,
                    failures_dropped: 0,
                },
            })),
            _ => Err(ParseFault::Syntax(error)),
        });
    }
    let polled = opts.governor.map_or(Ok(()), Governor::poll);
    polled.err().map(|kind| Err(ParseFault::Abort(kind)))
}

/// Evaluates the root for `output` and maps the result: the shared
/// middle of every engine's driver.
///
/// An abort overrides the nominal outcome: once a run aborts, its
/// unwinding value is untrustworthy (a `!p` predicate on the unwind path
/// turns the abort-induced failure into a success it never earned).
///
/// # Errors
///
/// As [`Engine::parse_with`].
pub fn evaluate(
    ev: &mut impl Evaluator,
    text: &str,
    output: Output<'_>,
) -> Result<Parsed, ParseFault> {
    let sink = match output {
        Output::Resilient(policy) => return resilient(ev, text, policy),
        Output::Events(sink) => Some(sink),
        Output::Tree => None,
    };
    let result = ev.eval_root(0, false);
    if let Some(kind) = ev.aborted() {
        return Err(ParseFault::Abort(kind));
    }
    match result {
        Ok((end, value)) if end as usize == text.len() => match sink {
            Some(sink) => {
                ev.emit(&value, sink);
                Ok(Parsed::Events)
            }
            None => Ok(Parsed::Tree(SyntaxTree::new(text, ev.materialize(value)))),
        },
        Ok((end, _)) => {
            ev.note_end(end);
            Err(ParseFault::Syntax(ev.error()))
        }
        Err(_) => Err(ParseFault::Syntax(ev.error())),
    }
}

/// The resilient half of [`evaluate`]: the shared restart driver over
/// root attempts, each attempt's value detached from the region. Aborts
/// thread straight through; they never become diagnostics.
fn resilient(
    ev: &mut impl Evaluator,
    text: &str,
    policy: &RecoverPolicy,
) -> Result<Parsed, ParseFault> {
    let driven = recover::drive(&Input::new(text), policy, |pos, fresh| {
        let end = match ev.eval_root(pos, fresh) {
            Ok((end, value)) => Some((end, ev.materialize(value))),
            Err(_) => None,
        };
        let attempt = recover::Attempt {
            end,
            error: ev.error(),
        };
        match ev.aborted() {
            Some(kind) => Err(kind),
            None => Ok(attempt),
        }
    });
    driven
        .map(|(value, diagnostics)| {
            Parsed::Recovered(Recovered {
                tree: SyntaxTree::new(text, value),
                diagnostics,
            })
        })
        .map_err(ParseFault::Abort)
}

/// The outcome of an ungoverned parse, which can fail only with a syntax
/// error: without a governor no depth, fuel, deadline or memo limit
/// exists to abort on.
pub fn ungoverned<T>(outcome: Result<T, ParseFault>) -> Result<T, ParseError> {
    outcome.map_err(|fault| match fault {
        ParseFault::Syntax(error) => error,
        ParseFault::Abort(kind) => unreachable!("an ungoverned parse aborted: {kind:?}"),
    })
}

/// The result of an ungoverned resilient parse, which cannot fail.
pub fn ungoverned_recovered(
    outcome: Result<Recovered<SyntaxTree>, ParseAbort>,
) -> Recovered<SyntaxTree> {
    outcome.unwrap_or_else(|kind| unreachable!("an ungoverned parse aborted: {kind:?}"))
}
