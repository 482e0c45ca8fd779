"""Columnar traffic ledger: the one store for every traffic counter.

MicroDeep's cost metric (Fig. 10) is the number of values each sensor
node sends and receives.  A :class:`TrafficLedger` keeps those tallies
for one :class:`~repro.wsn.topology.Topology` as structure-of-arrays
columns, next to the topology's positions/alive arrays:

- ``nodes``: an int64 ``(4, n)`` block whose rows are ``tx_packets``,
  ``tx_values``, ``rx_packets`` and ``rx_values``, indexed by the
  topology's insertion index (the node's *slot*);
- a link table: an append-only ``(src, dst) -> slot`` map plus an int64
  ``link_values`` column.  Slots never move (CSR edge ids would shift
  whenever the topology's epoch bumps).

Everything else is a view of these arrays: ``SensorNode.tx_count`` and
friends read and write one cell; a network's
``TrafficStats.per_node_*_values`` are :class:`CounterView` mappings
over its :class:`TrafficWindow`, the share of the counters that
network wrote; and each metrics registry the ledger is attached to
mirrors it through one :class:`LedgerSync` collector.

Write paths: :meth:`TrafficLedger.add_hop` (the event path, one hop at
a time through cached ``memoryview`` cells) and
:meth:`TrafficLedger.add_program` (a compiled plan's whole forward as
two fancy-indexed adds).
"""

from __future__ import annotations

import weakref
from collections.abc import Mapping
from typing import Dict, List, Optional, Tuple

import numpy as np

#: Rows of :attr:`TrafficLedger.nodes`.
TX_PACKETS, TX_VALUES, RX_PACKETS, RX_VALUES = range(4)

#: Registry series mirroring the value rows (``TX_VALUES``,
#: ``RX_VALUES``) and the link column.
_NODE_SERIES = ("net.tx_values", "net.rx_values")
_LINK_SERIES = "net.link_values"


def cell_property(row: int, doc: str) -> property:
    """A node attribute reading and writing ``node._ledger``'s
    ``row`` cell at ``node._slot`` (see :class:`~repro.wsn.SensorNode`)."""

    def get(node) -> int:
        return node._ledger.cells[row][node._slot]

    def set(node, value: int) -> None:
        node._ledger.cells[row][node._slot] = value

    return property(get, set, doc=doc)


class UnboundCounts:
    """The counters of a node no topology has bound yet: plain ints
    laid out like a one-slot ledger."""

    def __init__(self, counts) -> None:
        self.cells = tuple([count] for count in counts)

    def reset_node(self, slot: int) -> None:
        for cell in self.cells:
            cell[slot] = 0


class TrafficLedger:
    """Per-node and per-link traffic counters of one topology.

    Args:
        ids: ``(n,)`` node ids in slot order.
        slot_of: node id -> slot.
        initial: optional ``(4, n)`` starting counts (rows as
            :attr:`nodes`).
    """

    def __init__(
        self,
        ids: np.ndarray,
        slot_of: Dict[int, int],
        initial: Optional[np.ndarray] = None,
    ) -> None:
        n = int(ids.shape[0])
        self.ids = ids
        self.slot_of = slot_of
        self.nodes = np.zeros((4, n), dtype=np.int64)
        if initial is not None:
            self.nodes[...] = initial
        self.link_values = np.zeros(16, dtype=np.int64)
        self.link_src: List[int] = []
        self.link_dst: List[int] = []
        #: ``(src, dst) -> (link slot, src slot, dst slot)``: one lookup
        #: resolves a hop.
        self._hops: Dict[Tuple[int, int], Tuple[int, int, int]] = {}
        #: The window the latest write was attributed to.
        self.writer: Optional[TrafficWindow] = None
        #: Registry mirrors (held weakly: a registry owns its sync).
        self._syncs: "weakref.WeakSet[LedgerSync]" = weakref.WeakSet()
        self._bind_cells()

    def _bind_cells(self) -> None:
        """(Re)build the per-row ``memoryview`` cells the scalar write
        paths use; they cannot be pickled, so unpickling calls this."""
        self.cells = tuple(memoryview(row) for row in self.nodes)
        self.link_cells = memoryview(self.link_values)

    def __getstate__(self):
        state = self.__dict__.copy()
        # Registry mirrors are process-local; an unpickled ledger starts
        # with none.
        del state["cells"], state["link_cells"], state["_syncs"]
        return state

    def __setstate__(self, state) -> None:
        self.__dict__.update(state)
        self._syncs = weakref.WeakSet()
        self._bind_cells()

    @property
    def n_nodes(self) -> int:
        return int(self.nodes.shape[1])

    @property
    def n_links(self) -> int:
        return len(self.link_src)

    def links(self) -> np.ndarray:
        """The used prefix of :attr:`link_values` (a view)."""
        return self.link_values[: len(self.link_src)]

    # -- link table ----------------------------------------------------------
    def hop(self, src: int, dst: int) -> Tuple[int, int, int]:
        """``(link slot, src slot, dst slot)`` of the directed link
        ``src -> dst``; the link is appended on first use."""
        hop = self._hops.get((src, dst))
        if hop is None:
            hop = self._add_link(src, dst)
        return hop

    def _add_link(self, src: int, dst: int) -> Tuple[int, int, int]:
        ends = (self.slot_of[src], self.slot_of[dst])  # KeyError first
        slot = len(self.link_src)
        if slot == self.link_values.shape[0]:
            grown = np.zeros(2 * slot, dtype=np.int64)
            grown[:slot] = self.link_values
            self.link_cells.release()
            self.link_values = grown
            self.link_cells = memoryview(grown)
        self.link_src.append(src)
        self.link_dst.append(dst)
        hop = self._hops[(src, dst)] = (slot,) + ends
        return hop

    # -- write paths ---------------------------------------------------------
    def add_hop(
        self, writer: "TrafficWindow", src: int, dst: int,
        n_packets: int, n_values: int,
    ) -> None:
        """Tally one hop ``src -> dst`` carrying ``n_packets`` packets
        and ``n_values`` values, attributed to ``writer``."""
        if writer is not self.writer:
            self._switch(writer)
        hop = self._hops.get((src, dst))
        if hop is None:
            hop = self._add_link(src, dst)
        link, i, j = hop
        tx_packets, tx_values, rx_packets, rx_values = self.cells
        tx_packets[i] += n_packets
        tx_values[i] += n_values
        rx_packets[j] += n_packets
        rx_values[j] += n_values
        self.link_cells[link] += n_values

    def program_index(
        self, program
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(cells, counts, links)`` for a
        :class:`~repro.core.compiled.HopProgram`: flat indices into
        :attr:`nodes` with the per-inference counts they receive, and
        the program's link slots.  Use
        :meth:`HopProgram.ledger_index`, which caches this."""
        n = self.n_nodes
        slot_of = self.slot_of
        tx = np.array([slot_of[i] for i in program.tx_nodes.tolist()],
                      dtype=np.intp)
        rx = np.array([slot_of[i] for i in program.rx_nodes.tolist()],
                      dtype=np.intp)
        cells = np.concatenate([
            TX_PACKETS * n + tx, TX_VALUES * n + tx,
            RX_PACKETS * n + rx, RX_VALUES * n + rx,
        ])
        counts = np.concatenate([
            program.tx_packets, program.tx_values,
            program.rx_packets, program.rx_values,
        ]).astype(np.int64)
        links = np.array(
            [self.hop(s, d)[0] for s, d in zip(
                program.link_src.tolist(), program.link_dst.tolist())],
            dtype=np.intp,
        )
        # Fancy-indexed ``+=`` applies a repeated index once; the
        # program's tallies are per distinct node and link.
        if (np.unique(cells).size != cells.size
                or np.unique(links).size != links.size):
            raise ValueError("hop program repeats a node or link entry")
        return cells, counts, links

    def add_program(
        self, writer: "TrafficWindow", program, copies: int
    ) -> None:
        """Apply ``copies`` inferences of a compiled hop program,
        attributed to ``writer``."""
        if writer is not self.writer:
            self._switch(writer)
        cells, counts, links = program.ledger_index(self)
        self.nodes.reshape(-1)[cells] += counts * copies
        self.link_values[links] += program.link_values * copies

    def _switch(self, writer: Optional["TrafficWindow"]) -> None:
        if self.writer is not None:
            self.writer._deactivate()
        self.writer = writer
        if writer is not None:
            writer._activate()

    # -- resets --------------------------------------------------------------
    def reset(self, retract_from=None) -> None:
        """Zero every counter.

        The registry ``retract_from`` (a network's own session) has
        this ledger's contribution subtracted, so it keeps mirroring the
        zeroed counters.  Every other attached registry keeps what it
        was given (traffic not yet collected included), and windows
        keep reading the same values.
        """
        for sync in list(self._syncs):
            sync.ledger_reset(retract_from)
        if self.writer is not None:
            self.writer.origin -= self.nodes
        self.nodes[...] = 0
        self.link_values[...] = 0

    def reset_node(self, slot: int) -> None:
        """Zero one node's counters and the links into it (so link
        values still sum to the per-node receives); windows and
        attached registries keep what they saw."""
        incoming = np.flatnonzero(
            np.asarray(self.link_dst, dtype=np.int64) == self.ids[slot]
        )
        for sync in list(self._syncs):
            sync.node_reset(slot, incoming)
        if self.writer is not None:
            self.writer.origin[:, slot] -= self.nodes[:, slot]
        self.nodes[:, slot] = 0
        self.link_values[incoming] = 0

    # -- telemetry -----------------------------------------------------------
    def attach(self, registry) -> "LedgerSync":
        """Mirror this ledger into ``registry`` from now on
        (idempotent: one collector per registry however many networks
        share the ledger)."""
        for sync in self._syncs:
            if sync.registry is registry:
                return sync
        sync = LedgerSync(self, registry)
        self._syncs.add(sync)
        registry.register_collector(sync)
        return sync


class TrafficWindow:
    """The share of a ledger's node counters one writer (a network)
    added: the per-node traffic behind one :class:`TrafficStats`.

    Every write names its writer, and the ledger keeps exactly one
    writer active.  The active window reads ``base + (nodes - origin)``
    with ``origin`` the ledger's node block when it became active; when
    another writer takes over, the window folds that difference into
    ``base`` and goes inactive (reading ``base`` alone).  So several
    networks over one topology each see only their own traffic, while
    the node counters hold the sum.
    """

    def __init__(self, ledger: TrafficLedger) -> None:
        self.ledger = ledger
        self.base = np.zeros_like(ledger.nodes)
        self.origin: Optional[np.ndarray] = None

    def _activate(self) -> None:
        self.origin = self.ledger.nodes.copy()

    def _deactivate(self) -> None:
        self.base += self.ledger.nodes - self.origin
        self.origin = None

    def close(self) -> None:
        """Stop counting (the window keeps its values)."""
        if self.ledger.writer is self:
            self.ledger._switch(None)

    def row(self, row: int) -> np.ndarray:
        if self.origin is None:
            return self.base[row]
        return self.base[row] + (self.ledger.nodes[row] - self.origin[row])

    def cell(self, row: int, slot: int) -> int:
        value = int(self.base[row, slot])
        if self.origin is not None:
            value += (self.ledger.cells[row][slot]
                      - int(self.origin[row, slot]))
        return value


class CounterView(Mapping):
    """Read-only ``node id -> values`` mapping over a
    :class:`TrafficWindow`.

    A node is a key iff its packet count in the window is non-zero, so
    a message carrying zero values still creates a key holding 0.
    """

    __slots__ = ("_window", "_packets", "_values")

    def __init__(self, window: TrafficWindow, packets_row: int,
                 values_row: int) -> None:
        self._window = window
        self._packets = packets_row
        self._values = values_row

    def _live(self) -> np.ndarray:
        return np.flatnonzero(self._window.row(self._packets))

    def __getitem__(self, node_id) -> int:
        window = self._window
        slot = window.ledger.slot_of.get(node_id)
        if slot is None or not window.cell(self._packets, slot):
            raise KeyError(node_id)
        return window.cell(self._values, slot)

    def __iter__(self):
        return iter(self._window.ledger.ids[self._live()].tolist())

    def __len__(self) -> int:
        return int(np.count_nonzero(self._window.row(self._packets)))

    def to_dict(self) -> Dict[int, int]:
        live = self._live()
        values = self._window.row(self._values)[live]
        ids = self._window.ledger.ids[live]
        return dict(zip(ids.tolist(), values.tolist()))

    def keys(self):
        return self.to_dict().keys()

    def items(self):
        return self.to_dict().items()

    def values(self):
        return self.to_dict().values()

    def __eq__(self, other) -> bool:
        if not isinstance(other, Mapping):
            return NotImplemented
        return self.to_dict() == dict(other.items())

    __hash__ = None

    def __repr__(self) -> str:
        return repr(self.to_dict())


class _MirroredColumn:
    """One ledger column as a registry sees it: per cell the ledger
    value last pushed, the amount given since the last reset (what a
    retraction takes back), traffic carried over a reset but not yet
    pushed, and the cached counter."""

    def __init__(self, current: np.ndarray, counter_of) -> None:
        self.pushed = current.astype(np.float64)
        self.given = np.zeros_like(self.pushed)
        self.carry = np.zeros_like(self.pushed)
        self.counters: List = [None] * self.pushed.size
        self.counter_of = counter_of

    def grow(self, size: int) -> None:
        extra = size - self.pushed.size
        if extra:
            pad = np.zeros(extra)
            self.pushed = np.concatenate([self.pushed, pad])
            self.given = np.concatenate([self.given, pad])
            self.carry = np.concatenate([self.carry, pad])
            self.counters.extend([None] * extra)

    def counter(self, cell: int):
        counter = self.counters[cell]
        if counter is None:
            counter = self.counters[cell] = self.counter_of(cell)
        return counter

    def push(self, current: np.ndarray) -> None:
        fresh = (current - self.pushed).reshape(-1)
        delta = fresh + self.carry.reshape(-1)
        changed = np.flatnonzero(delta)
        if not changed.size:
            return
        counters = self.counters
        for cell, amount in zip(changed.tolist(), delta[changed].tolist()):
            counter = counters[cell]
            if counter is None:
                counter = self.counter(cell)
            counter.inc(amount)
        self.pushed.reshape(-1)[changed] = current.reshape(-1)[changed]
        self.given.reshape(-1)[changed] += fresh[changed]
        self.carry.reshape(-1)[changed] = 0.0

    def retract(self) -> None:
        """Take back what was given; uncollected traffic since the
        last push is dropped with the counters (carried traffic of
        earlier writers is still delivered)."""
        flat = self.given.reshape(-1)
        cells = np.flatnonzero(flat)
        for cell, amount in zip(cells.tolist(), flat[cells].tolist()):
            self.counter(cell).value -= amount
        self.pushed[...] = 0.0
        self.given[...] = 0.0

    def rebase(self, current: np.ndarray, cells=...) -> None:
        """The ledger zeroes ``cells`` without retraction: carry their
        uncollected traffic to the next push."""
        self.carry[cells] += current[cells] - self.pushed[cells]
        self.pushed[cells] = 0.0


class LedgerSync:
    """Pull collector mirroring one ledger into one metrics registry.

    The node value rows and the link column are each a
    :class:`_MirroredColumn`, so a collect is one vectorized delta and
    a loop over the cells that changed.  A series is created on its
    first non-zero delta; traffic from before the sync attached is
    never pushed.  A ledger reset costs each attached sync a few
    vector operations and no registry writes, however many syncs of
    finished sessions are still attached.
    """

    def __init__(self, ledger: TrafficLedger, registry) -> None:
        self.ledger = ledger
        self.registry = registry
        self._generation = registry.generation
        self.nodes = _MirroredColumn(
            ledger.nodes[TX_VALUES::2], self._node_counter
        )
        self.links = _MirroredColumn(ledger.links(), self._link_counter)

    def _node_counter(self, cell: int):
        row, slot = divmod(cell, self.ledger.n_nodes)
        return self.registry.counter(
            _NODE_SERIES[row], node=int(self.ledger.ids[slot])
        )

    def _link_counter(self, slot: int):
        return self.registry.counter(
            _LINK_SERIES, src=self.ledger.link_src[slot],
            dst=self.ledger.link_dst[slot],
        )

    def _columns(self):
        """``((column, current), ...)`` for the node value rows and the
        links, with the link state grown to the ledger's link table."""
        if self.registry.generation != self._generation:
            # The registry was cleared: its series are new objects.
            self._generation = self.registry.generation
            for column in (self.nodes, self.links):
                column.counters = [None] * len(column.counters)
        self.links.grow(self.ledger.n_links)
        return ((self.nodes, self.ledger.nodes[TX_VALUES::2]),
                (self.links, self.ledger.links()))

    def __call__(self, registry=None) -> None:
        for column, current in self._columns():
            column.push(current)

    def ledger_reset(self, retract_from) -> None:
        for column, current in self._columns():
            if self.registry is retract_from:
                column.retract()
            else:
                # What was given belongs to the finished writers; a
                # later retraction takes back only newer traffic.
                column.rebase(current)
                column.given[...] = 0.0

    def node_reset(self, slot: int, links: np.ndarray) -> None:
        (nodes, node_values), (links_col, link_values) = self._columns()
        nodes.rebase(node_values, (slice(None), slot))
        links_col.rebase(link_values, links)
