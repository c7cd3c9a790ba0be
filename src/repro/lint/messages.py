"""REP003 — message discipline: payloads are word-countable and ordered.

Two guarantees hang off what protocols put on the wire:

* the width accounting of ``util/words.py`` (Theorem 2's
  ``O(log^eps n)``-word messages are *measured* by it), and
* the byte-identical trace guarantee of PR 2, whose
  ``payload_fingerprint`` is a CRC-32 of ``repr(payload)``.

Both need payloads built from ``None``/ints/floats/strs nested in
*ordered* containers (tuples/lists).  A ``set`` or ``dict`` payload has
interpreter-dependent iteration order: its repr — hence its fingerprint,
hence the whole trace — stops being reproducible, and a generator or
lambda is charged a flat 1 word no matter how much information it
smuggles.  This rule statically inspects every ``api.send(dst, payload)``
/ ``api.broadcast(payload)`` call in ``distributed/`` and flags payload
expressions that are visibly:

* ``dict``/``set`` displays or comprehensions (``{...}``),
* generator expressions or lambdas,
* ``set(...)`` / ``frozenset(...)`` / ``dict(...)`` constructor calls.

Payloads the analyzer cannot see through (a variable, a function call)
are trusted — the dynamic trace layer still checks them at run time.

:func:`static_payload_words` is the static twin of
:func:`repro.util.words.message_words`: on a payload expression built
from literals it computes the exact word count the simulator will
charge.  A hypothesis property test keeps the two models in agreement.
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Optional

from repro.lint.base import FileContext, Rule
from repro.lint.diagnostics import Diagnostic
from repro.lint.project import ModuleInfo, ProjectContext

__all__ = ["MessageDisciplineRule", "static_payload_words"]

_DISPLAY_KINDS = {
    ast.Dict: "dict display",
    ast.Set: "set display",
    ast.DictComp: "dict comprehension",
    ast.SetComp: "set comprehension",
    ast.GeneratorExp: "generator expression",
    ast.Lambda: "lambda",
}

_BANNED_CONSTRUCTORS = frozenset({"set", "frozenset", "dict"})

_SEND_METHODS = frozenset({"send", "broadcast"})


def _payload_args(call: ast.Call) -> Iterator[ast.expr]:
    """The payload expression(s) of an ``api.send``/``broadcast`` call."""
    func = call.func
    if not isinstance(func, ast.Attribute) or func.attr not in _SEND_METHODS:
        return
    if func.attr == "send":
        # send(dst, payload) — payload is the 2nd positional argument.
        if len(call.args) >= 2:
            yield call.args[1]
    else:
        # broadcast(payload)
        if len(call.args) >= 1:
            yield call.args[0]
    for kw in call.keywords:
        if kw.arg == "payload":
            yield kw.value


def _classify_bad(expr: ast.expr) -> Optional[str]:
    """A human-readable label if ``expr`` is a visibly bad payload."""
    for kind, label in _DISPLAY_KINDS.items():
        if isinstance(expr, kind):
            return label
    if isinstance(expr, ast.Call) and isinstance(expr.func, ast.Name):
        if expr.func.id in _BANNED_CONSTRUCTORS:
            return f"{expr.func.id}(...) call"
    return None


class MessageDisciplineRule(Rule):
    code = "REP003"
    name = "message-discipline"
    summary = (
        "send/broadcast payloads must be ordered, word-countable values "
        "(None/int/float/str nested in tuples/lists) — no dict/set/"
        "generator payloads (trace fingerprints, util/words accounting)"
    )

    def applies(self, module: ModuleInfo) -> bool:
        return module.ctx.in_packages(frozenset({"distributed"}))

    def check_module(
        self, project: ProjectContext, module: ModuleInfo
    ) -> Iterator[Diagnostic]:
        for node in ast.walk(module.ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            for payload in _payload_args(node):
                yield from self._check_payload(module.ctx, payload)

    def _check_payload(
        self, ctx: FileContext, payload: ast.expr
    ) -> Iterator[Diagnostic]:
        # The payload itself, and anything nested inside an ordered
        # container: ``api.send(u, (x, {1, 2}))`` is just as broken.
        for sub in ast.walk(payload):
            label = _classify_bad(sub)
            if label is not None:
                yield self.diag(
                    ctx,
                    sub,
                    f"payload contains a {label}; unordered/opaque values "
                    "break trace fingerprints and words accounting — send "
                    "a sorted tuple instead",
                )


def static_payload_words(node: ast.expr) -> Optional[int]:
    """Word count of a literal payload expression, or None if unknown.

    Mirrors :func:`repro.util.words.message_words` on the static side:
    ``None`` is 0 words; int/float/bool/str constants are 1; tuples,
    lists, sets and frozensets cost the sum of their items; dicts the sum
    over keys and values; a negated number literal (``-1``) is still one
    constant.  Any expression outside that grammar (names, calls,
    f-strings, starred items) returns ``None`` — statically unknown.
    """
    if isinstance(node, ast.Constant):
        value = node.value
        if value is None:
            return 0
        if isinstance(value, (bool, int, float, str)):
            return 1
        if isinstance(value, bytes):
            return 1  # opaque token, like message_words' fallback
        return None
    if isinstance(node, ast.UnaryOp) and isinstance(
        node.op, (ast.USub, ast.UAdd)
    ):
        operand = node.operand
        if isinstance(operand, ast.Constant) and isinstance(
            operand.value, (int, float)
        ):
            return 1
        return None
    if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
        return _sum_words(node.elts)
    if isinstance(node, ast.Call):
        # frozenset({...}) / set([...]) of a literal container.
        if (
            isinstance(node.func, ast.Name)
            and node.func.id in ("set", "frozenset", "tuple", "list")
            and len(node.args) == 1
            and not node.keywords
        ):
            return static_payload_words(node.args[0])
        return None
    if isinstance(node, ast.Dict):
        total = 0
        for key, value in zip(node.keys, node.values):
            if key is None:  # ``{**other}`` expansion — unknown
                return None
            for part in (key, value):
                words = static_payload_words(part)
                if words is None:
                    return None
                total += words
        return total
    return None


def _sum_words(elts: List[ast.expr]) -> Optional[int]:
    total = 0
    for elt in elts:
        words = static_payload_words(elt)
        if words is None:
            return None
        total += words
    return total
