"""REP002 — simulation honesty: nodes talk only through the simulator.

The round/message/width accounting of Theorem 2 (``O(t + log n)`` rounds
at ``O(log^eps n)``-word messages) is only meaningful if each node
program's knowledge really arrives via counted messages.  In Python
nothing stops a :class:`~repro.distributed.simulator.NodeProgram` from
reading a neighbor program's fields or the simulator's own queues —
"telepathy" that would make every measured bound fiction.  This rule
statically bans, *inside NodeProgram subclasses of protocol modules*
(``distributed/*_protocol.py``):

* attribute access on another object's underscore-private state
  (``api._network``, ``other._shared`` — anything ``x._y`` where ``x``
  is not ``self``);
* any reference to simulator internals (``_pending``, ``_apis``,
  ``_outbox``, ``_delayed``, ``_sorted_nbrs``, ``_setup_done``,
  ``_halted``, ``_network``, ``_ledger``, ``_nbrs``, ``_nbr_set``,
  ``_pairs``, ``_active``, ``_init_state``, ``_run_setup``,
  ``_run_round``) anywhere in an attribute chain, even one rooted at
  ``self``;
* holding the global objects at all: bare reads of names ``network`` /
  ``simulator`` inside node-program code.

Driver functions in the same module (which *build* the network and
harvest program state after the run) are exempt — output collection
after quiescence is the model's "every processor knows its result",
not mid-protocol peeking.
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Union

from repro.lint.base import FileContext, Rule, attribute_chain
from repro.lint.diagnostics import Diagnostic

__all__ = ["HonestyRule"]

#: Network/Api internals (see ``distributed/simulator.py``).  Touching
#: any of these from node code bypasses the message accounting.
_SIMULATOR_INTERNALS = frozenset(
    {
        "_network",
        "_pending",
        "_apis",
        "_outbox",
        "_delayed",
        "_sorted_nbrs",
        "_setup_done",
        "_halted",
        # hot-path caches added by the simulator overhaul: the per-api
        # neighbor list/set and the network's active/pair lists.
        "_nbrs",
        "_nbr_set",
        "_pairs",
        "_active",
        # the round kernel every engine drives.
        "_init_state",
        "_run_setup",
        "_run_round",
        # the per-network halt/stats/obs ledger an Api reports to;
        # ``_network`` stays listed so code reaching for the network
        # through an Api still fails lint.
        "_ledger",
    }
)

#: bare names a node program must never read: holding the global
#: simulator/network means the node can see the whole world.
_BANNED_GLOBALS = frozenset({"network", "simulator"})


def _is_node_program_base(base: ast.expr) -> bool:
    if isinstance(base, ast.Name):
        return base.id.endswith("NodeProgram") or base.id == "NodeProgram"
    if isinstance(base, ast.Attribute):
        return base.attr.endswith("NodeProgram") or base.attr == "NodeProgram"
    return False


def _node_program_classes(tree: ast.Module) -> List[ast.ClassDef]:
    return [
        node
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef)
        and any(_is_node_program_base(base) for base in node.bases)
    ]


class HonestyRule(Rule):
    code = "REP002"
    name = "simulation-honesty"
    summary = (
        "node programs in *_protocol.py may not read other nodes' state or "
        "simulator internals; all knowledge arrives via send/recv "
        "(CONGEST accounting, Thm. 2)"
    )

    def applies(self, ctx: FileContext) -> bool:
        return ctx.is_protocol_file

    def check(self, ctx: FileContext) -> Iterator[Diagnostic]:
        for cls in _node_program_classes(ctx.tree):
            yield from self._check_class(ctx, cls)

    def _check_class(
        self, ctx: FileContext, cls: ast.ClassDef
    ) -> Iterator[Diagnostic]:
        for node in ast.walk(cls):
            if isinstance(node, ast.Attribute):
                yield from self._check_attribute(ctx, cls, node)
            elif isinstance(node, ast.Name):
                if (
                    isinstance(node.ctx, ast.Load)
                    and node.id in _BANNED_GLOBALS
                ):
                    yield self.diag(
                        ctx,
                        node,
                        f"node program {cls.name} reads global "
                        f"'{node.id}'; a processor only sees its own "
                        "state and its inbox (use the Api handle)",
                    )

    def _check_attribute(
        self,
        ctx: FileContext,
        cls: ast.ClassDef,
        node: ast.Attribute,
    ) -> Iterator[Diagnostic]:
        chain = attribute_chain(node)
        if chain is None:
            # Rooted at a call/subscript (e.g. ``programs[u].state``):
            # still catch simulator internals by attribute name.
            if node.attr in _SIMULATOR_INTERNALS:
                yield self.diag(
                    ctx,
                    node,
                    f"node program {cls.name} touches simulator internal "
                    f"'.{node.attr}'; communicate via api.send/broadcast",
                )
            return
        root, attrs = chain
        internals = [a for a in attrs if a in _SIMULATOR_INTERNALS]
        if internals:
            yield self.diag(
                ctx,
                node,
                f"node program {cls.name} touches simulator internal "
                f"'.{internals[0]}' (via "
                f"{'.'.join([root] + attrs)}); communicate via "
                "api.send/broadcast",
            )
            return
        if root == "self":
            return
        # Only the *first* attribute hop peeks into another object; a
        # leading private name (``x._y.z``) is what we flag.
        first = attrs[0]
        if first.startswith("_") and not first.startswith("__"):
            yield self.diag(
                ctx,
                node,
                f"node program {cls.name} reads private state "
                f"'{root}.{first}' of another object; nodes exchange "
                "information only through counted messages",
            )
