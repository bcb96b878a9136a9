"""Block-by-block protocol state machine.

The chain state owns a token ledger covering every party that can hold
value: the pool reserves, the vault, the per-batch escrows, a collateral
account for committed orders, agent accounts, and a burn sink. Every token
movement goes through a transfer helper, so total supply is conserved by
construction. Legs book unchecked; the two outside payers, an order's owner
and the update's producer, are checked where they pay. Every block end checks
the supply, that the pool is live and holds its earmarks, and that neither the
vault nor the collateral is overdrawn. No agent acts as an engine account.
The chain keeps no settings of its own: its caller names the order bounds, the
reveal window, the conversion frequency and each block's converter, and opening
balances fund agents only, so every engine account opens empty.

Escrow accounting: the update that allocates a batch sizes its escrow to pay
out the worst case, ``count`` orders all selling the same side at the
per-order bound ``max_x`` or ``max_y``, priced at the update's price ``p``:

    (count * max_y * p,  count * max_x / p)

The producer's ``beta`` share of that escrow is held physically by the escrow
party, while the pool-backed share stays inside the pool reserves as an
earmark (checked for sufficiency, never moved). The pool therefore keeps
pricing on its full reserves during open batch windows — the reading under
which a zero-rebate schedule reduces the protocol exactly to a plain CFMM —
and settlement flows are routed so each side ends up with its
``1 - beta : beta`` share of the escrow remainder.

Order commitments are modeled as salted digests of the order's exact bits with
honest binding. An OCT keeps only owner, commitment, side and collateral; a
reveal checks only the digest: it binds the side and size the collateral was
sized from, and a batch closes with its reveal window, so a late reveal finds
its OCT gone. An ``Oct`` is an immutable ``NamedTuple`` record whose stage is
the queue holding it: ``mempool`` (pending), ``inserted_by_height``,
``allocated`` (in an open batch, unrevealed), ``reveals``, then its batch's
``ExecutionReceipt``, in ``revealed`` beside its order or in ``burned``. A
refused action books nothing and moves no OCT.

What happens in a block is recorded once, in the ``BlockReceipt`` that
``advance_block`` returns; block rows, run metrics and ``events.ndjson`` derive from it.
An update's receipt holds its move's two legs, a batch's the OCTs it revealed.
"""
from __future__ import annotations

import struct
from hashlib import sha256
from json.encoder import encode_basestring_ascii
from typing import NamedTuple

from .allocation import (Book, Order, OrderSide, Settlement, clearing_price_with_limits,
                         verify_clearing_price)
from .cfmm import CONSTANT_PRODUCT, Reserves, check_int, check_live, check_pair, check_price
from .errors import (
    DomainError,
    FundingError,
    InvalidTransition,
    InvariantViolation,
    VerificationError,
)
from .rebate import RebateSchedule, apply_rebated_move, vault_reenter

POOL = "pool"
VAULT = "vault"
COLLATERAL = "collateral"
BURNED = "burned"
# The engine's own accounts, with each batch's escrow ``alloc:<label>``; no agent acts as one.
ENGINE_ACCOUNTS = frozenset({POOL, VAULT, COLLATERAL, BURNED})

_NEG_TOL = 1e-9
_SUPPLY_RTOL = 1e-9


def _refuse_engine_account(name, what):
    if type(name) is not str or name in ENGINE_ACCOUNTS or name.startswith("alloc:"):
        raise DomainError(f"{what} must be a str naming no engine account, got {name!r}")


def _guard(src, dst, s, d, dx, dy):
    """Raise FundingError if moving (dx, dy) from ``s`` to ``d`` overdraws a payer.

    Each token's tolerance scales with that token's amount only."""
    tol_x, tol_y = -_NEG_TOL * (abs(dx) + 1.0), -_NEG_TOL * (abs(dy) + 1.0)
    for party, acct, tx, ty in ((src, s, -dx, -dy), (dst, d, dx, dy)):
        if (tx < 0.0 and acct[0] + tx < tol_x) or (ty < 0.0 and acct[1] + ty < tol_y):
            raise FundingError(f"{party} overdrawn moving ({dx!r}, {dy!r}) from {src} to {dst}: "
                               f"holds {list(acct)!r}", party=party)


_pack_order_bits = struct.Struct("<?dd").pack  # sells x, size, limit or -1.0 (market; limits > 0)
_BUY_Y = OrderSide.BUY_Y


def commit_order(order: Order, salt: str) -> str:
    """Salted binding commitment to the exact bits of an order's side, size and limit."""
    if type(order) is not Order:  # a plain tuple of the same fields would compare equal
        raise DomainError(f"order must be an Order, got {order!r}")
    side, size, limit = order
    bits = _pack_order_bits(side is _BUY_Y, size, -1.0 if limit is None else limit)
    return sha256(bits + salt.encode()).hexdigest()


class Oct(NamedTuple):
    """An order-commitment transaction as the chain sees it."""

    id: int
    owner: str
    commitment: str
    collateral_token: str  # "x" or "y", the token the hidden order sells
    collateral: float


class UpdateReceipt(NamedTuple):
    """One update transaction at ``height`` and the batch ``oct_ids`` it allocated.

    ``before`` is the pool the move started from, ``vault_deposit`` and
    ``producer_flow`` the move's legs, ``snapshot`` the pool they book,
    ``before - producer_flow - vault_deposit``, which the batch settles against.
    The producer funds the ``beta`` share of the booked ``(x, y)`` escrow into
    the batch's account; the pool earmarks the rest.
    """

    height: int
    label: int
    beta: float
    price: float
    before: Reserves
    vault_deposit: tuple[float, float]
    producer_flow: tuple[float, float]
    escrow: tuple[float, float]
    snapshot: Reserves
    producer: str
    oct_ids: tuple[int, ...]

    @property
    def gap(self) -> int:
        return self.height - self.label

    @property
    def count(self) -> int:
        return len(self.oct_ids)


class ExecutionReceipt(NamedTuple):
    update: UpdateReceipt
    settlement: Settlement
    orders: tuple[Order, ...]
    revealed: tuple[Oct, ...]  # revealed[i] is the OCT that carried orders[i]
    burned: tuple[Oct, ...]
    to_pool: tuple[float, float]
    to_producer: tuple[float, float]


class ReentryReceipt(NamedTuple):
    added: tuple[float, float]
    converter_flow: tuple[float, float]
    converter: str


def _json_float(v: float) -> str:
    """``v`` as ``json.dumps`` writes a float, with NaN and inf made null."""
    return float.__repr__(v) if v - v == 0.0 else "null"


class BlockReceipt(NamedTuple):
    """Everything that happened in one block, and its closing balances.

    ``eps`` is the block's external price, the one the vault converts at; ``inserts`` holds
    one ``(producer, ids)`` pair per non-empty insertion; ``pool`` and ``vault`` are the
    ledger balances at block end. ``ndjson`` renders the block's event-log lines from them.
    """

    height: int
    eps: float
    submitted: tuple[Oct, ...]
    inserts: tuple[tuple[str, tuple[int, ...]], ...]
    update: UpdateReceipt | None
    revealed: tuple[int, ...]
    executions: tuple[ExecutionReceipt, ...]
    reentry: ReentryReceipt | None
    pool: tuple[float, float]
    vault: tuple[float, float]

    def ndjson(self) -> str:
        """The block's ``events.ndjson`` lines in phase order, as ``json.dumps`` writes them."""
        h, f, s = self.height, _json_float, encode_basestring_ascii
        lines = [f'{{"collateral": {f(o.collateral)}, "height": {h}, "id": {o.id}, '
                 f'"kind": "oct_submitted", "owner": {s(o.owner)}, '
                 f'"token": {s(o.collateral_token)}}}\n' for o in self.submitted]
        lines += [f'{{"height": {h}, "ids": [{", ".join(map(str, ids))}], '
                  f'"kind": "octs_inserted", "producer": {s(p)}}}\n' for p, ids in self.inserts]
        if (u := self.update) is not None:
            (ex, ey), (fx, fy), (vx, vy) = u.escrow, u.producer_flow, u.vault_deposit
            lines.append(f'{{"beta": {f(u.beta)}, "count": {u.count}, '
                         f'"escrow": [{f(ex)}, {f(ey)}], "gap": {u.gap}, "height": {h}, '
                         f'"kind": "update_applied", "label": {u.label}, "price": {f(u.price)}, '
                         f'"producer": {s(u.producer)}, "producer_flow": [{f(fx)}, {f(fy)}], '
                         f'"vault_deposit": [{f(vx)}, {f(vy)}]}}\n')
        lines += [f'{{"height": {h}, "id": {i}, "kind": "oct_revealed"}}\n' for i in self.revealed]
        for e in self.executions:
            lines += [f'{{"amount": {f(o.collateral)}, "height": {h}, "id": {o.id}, '
                      f'"kind": "oct_burned", "owner": {s(o.owner)}}}\n' for o in e.burned]
            (dx, dy), (px, py), (qx, qy) = e.settlement.pool_delta, e.to_pool, e.to_producer
            lines.append(f'{{"height": {h}, "kind": "batch_executed", "label": {e.update.label}, '
                         f'"n_allocated": {e.update.count}, "n_burned": {len(e.burned)}, '
                         f'"n_revealed": {len(e.orders)}, "pool_delta": [{f(dx)}, {f(dy)}], '
                         f'"price": {f(e.settlement.price)}, "to_pool": [{f(px)}, {f(py)}], '
                         f'"to_producer": [{f(qx)}, {f(qy)}]}}\n')
        if (r := self.reentry) is not None:
            (ax, ay), (cx, cy) = r.added, r.converter_flow
            lines.append(f'{{"added": [{f(ax)}, {f(ay)}], "converter": {s(r.converter)}, '
                         f'"converter_flow": [{f(cx)}, {f(cy)}], "eps": {f(self.eps)}, '
                         f'"height": {h}, "kind": "vault_reentered"}}\n')
        (px, py), (vx, vy) = self.pool, self.vault
        lines.append(f'{{"height": {h}, "kind": "block_end", "pool": [{f(px)}, {f(py)}], '
                     f'"vault": [{f(vx)}, {f(vy)}]}}\n')
        return "".join(lines)


class ChainState:
    """Mutable protocol state advanced one block at a time.

    The per-block call order a driver is expected to follow mirrors the
    protocol: submit OCTs, insert a subset, optionally apply one update
    transaction, apply reveals, then ``advance_block`` — which executes due
    batches, periodically folds the vault back into the pool, increments
    the height and returns the block's receipt.
    """

    def __init__(
        self,
        reserves: Reserves,
        schedule: RebateSchedule,
        *,
        max_x: float,
        max_y: float,
        reveal_window: int,
        conversion_frequency: int,
        balances: dict[str, tuple[float, float]] | None = None,
    ):
        max_x, max_y = check_price(max_x, what="max_x"), check_price(max_y, what="max_y")
        if not isinstance(schedule, RebateSchedule):
            raise DomainError(f"schedule must be a RebateSchedule, got {schedule!r}")
        if not isinstance(balances, (dict, type(None))):
            raise DomainError(f"balances must be a dict of party -> (x, y), got {balances!r}")
        self.schedule = schedule
        self.max_x, self.max_y = max_x, max_y
        self.reveal_window = check_int(reveal_window, "reveal_window")
        self.conversion_frequency = check_int(conversion_frequency, "conversion_frequency")
        self.height = 0
        self.last_alloc_label = -1
        self.mempool: dict[int, Oct] = {}
        self.inserted_by_height: dict[int, list[Oct]] = {}
        self.open_allocations: dict[int, UpdateReceipt] = {}
        self.allocated: dict[int, Oct] = {}
        self.reveals: dict[int, tuple[Oct, Order]] = {}
        pool = list(check_live(Reserves(*check_pair(reserves, "reserves")), "reserves"))
        self.balances: dict[str, list[float]] = {POOL: pool}
        for party, opening in (balances or {}).items():
            _refuse_engine_account(party, "opening balances")
            self.balances[party] = check_pair(opening, f"opening balance of {party!r}", True)
        for party in (VAULT, COLLATERAL, BURNED):
            self.balances[party] = [0.0, 0.0]
        self._next_oct_id = 0
        self._supply0 = self.total_supply()
        self._open_block()

    def _open_block(self):
        self._submitted: list[Oct] = []
        self._inserts: list[tuple[str, tuple[int, ...]]] = []
        self._update: UpdateReceipt | None = None
        self._revealed: list[int] = []
        self._executions: list[ExecutionReceipt] = []

    # ------------------------------------------------------------------ ledger

    def _transfer(self, src: str, dst: str, dx: float, dy: float):
        """Move (dx, dy) from src to dst, unchecked; negative components flip direction."""
        if dx == 0.0 and dy == 0.0:
            return
        s = self.balances.setdefault(src, [0.0, 0.0])
        d = self.balances.setdefault(dst, [0.0, 0.0])
        s[0] -= dx
        s[1] -= dy
        d[0] += dx
        d[1] += dy

    def _transfer_token(self, src: str, dst: str, token: str, amount: float):
        """Move ``amount`` of one token, ``"x"`` or ``"y"``, from src to dst, unchecked,
        in one call that books and opens accounts as ``_transfer`` would. Its destinations
        (collateral, burned) open at 0.0 and never hold -0.0, so the other token needs no add."""
        if amount == 0.0:
            return
        i = 0 if token == "x" else 1
        s, d = self.balances.get(src), self.balances.get(dst)
        if s is None:
            s = self.balances[src] = [0.0, 0.0]
        if d is None:
            d = self.balances.setdefault(dst, [0.0, 0.0])
        s[i] -= amount
        d[i] += amount

    def _book_fill(self, escrow: str, oct: Oct, sold: float, bought: float):
        """Book a revealed order's fill in place, unchecked, as the three ``_transfer_token``
        legs would: ``sold`` of the OCT's token from the collateral into ``escrow``,
        ``bought`` of the other from ``escrow`` to the owner, the collateral's rest to
        the owner. The owner's account exists (it posted the collateral), and a fill
        that sells nothing buys nothing, so the first leg opens the escrow if any does."""
        i = 0 if oct.collateral_token == "x" else 1
        j = 1 - i
        balances = self.balances
        collateral, owner = balances[COLLATERAL], balances[oct.owner]
        if sold != 0.0:
            e = balances.get(escrow)
            if e is None:
                e = balances[escrow] = [0.0, 0.0]
            collateral[i] -= sold
            e[i] += sold
        if bought != 0.0:
            e[j] -= bought
            owner[j] += bought
        rest = oct.collateral - sold
        if rest != 0.0:
            collateral[i] -= rest
            owner[i] += rest
            # The legs' two-token add turns a -0.0 into 0.0. Only this slot can hold one,
            # from an opening balance: the escrow opens at 0.0, the owner's sold token was
            # debited the collateral, and no add or subtract makes -0.0 from anything else.
            owner[j] += 0.0

    def total_supply(self) -> tuple[float, float]:
        tx = ty = 0.0
        for bx, by in self.balances.values():
            tx += bx
            ty += by
        return tx, ty

    def conservation_error(self) -> float:
        tx, ty = self.total_supply()
        return max(abs(tx - self._supply0[0]), abs(ty - self._supply0[1]))

    def check_books(self):
        """Raise InvariantViolation unless each token's supply is conserved (to a
        relative ``_SUPPLY_RTOL``), the pool is live and holds its earmarks, the
        vault is not negative and the collateral not overdrawn (by one bound's tolerance)."""
        (tx, ty), (x0, y0) = self.total_supply(), self._supply0
        # Written so that a NaN fails the comparison and raises.
        if not (abs(tx - x0) <= _SUPPLY_RTOL * abs(x0) and abs(ty - y0) <= _SUPPLY_RTOL * abs(y0)):
            raise InvariantViolation(f"token supply drifted from ({x0!r}, {y0!r}) "
                                     f"to ({tx!r}, {ty!r})")
        ex, ey = self.earmark() if self.open_allocations else (0.0, 0.0)
        vx, vy = self.balances[VAULT]
        try:
            px, py = check_live(tuple.__new__(Reserves, self.balances[POOL]), "pool reserves")
        except DomainError as e:
            raise InvariantViolation(str(e)) from None
        if not (ex <= px and ey <= py):
            raise InvariantViolation(f"pool ({px!r}, {py!r}) cannot hold its earmarks "
                                     f"({ex!r}, {ey!r})")
        if vx < 0.0 or vy < 0.0:
            raise InvariantViolation(f"vault overdrawn: ({vx!r}, {vy!r})")
        cx, cy = self.balances[COLLATERAL]  # unchecked legs may leave rounding dust below 0
        if not (cx >= -_NEG_TOL * (self.max_x + 1.0) and cy >= -_NEG_TOL * (self.max_y + 1.0)):
            raise InvariantViolation(f"collateral overdrawn: ({cx!r}, {cy!r})")

    # ------------------------------------------------------------------- views

    def pool_reserves(self) -> Reserves:
        return tuple.__new__(Reserves, self.balances[POOL])

    def earmark(self) -> tuple[float, float]:
        """Pool-backed escrow share of the open allocations."""
        ex = ey = 0.0
        for u in self.open_allocations.values():
            share = 1.0 - u.beta
            ex += share * u.escrow[0]
            ey += share * u.escrow[1]
        return ex, ey

    # ----------------------------------------------------------------- actions

    def submit_oct(self, owner: str, order: Order) -> Oct:
        """Commit ``owner``'s order to the mempool, posting max-bound collateral.

        The engine computes the binding commitment and forgets the order body:
        only the owner, the commitment, the sold token and the collateral stay
        visible until reveal.
        """
        if type(owner) is not str or owner in ENGINE_ACCOUNTS or owner.startswith("alloc:"):
            _refuse_engine_account(owner, "owner")  # raises
        oct_id = self._next_oct_id
        commitment = commit_order(order, str(oct_id))  # refuses what is not an Order
        if order[0] is _BUY_Y:
            token, bound, i = "x", self.max_x, 0
        else:
            token, bound, i = "y", self.max_y, 1
        if order[1] > bound:
            raise DomainError(f"order size {order[1]!r} exceeds the {token} bound {bound!r}")
        funds = self.balances.get(owner) or (0.0, 0.0)
        if funds[i] - bound < -_NEG_TOL * (bound + 1.0):  # the leg's one payer, as _guard tests
            _guard(owner, COLLATERAL, funds, self.balances[COLLATERAL],
                   *((bound, 0.0), (0.0, bound))[i])
        oct = tuple.__new__(Oct, (oct_id, owner, commitment, token, bound))
        self._transfer_token(owner, COLLATERAL, token, bound)
        self._next_oct_id = oct_id + 1
        self.mempool[oct_id] = oct
        self._submitted.append(oct)
        return oct

    def insert_octs(self, producer: str, oct_ids) -> list[int]:
        """Producer writes a subset of the mempool into the current block.

        Refused once an update has allocated the current height: no later
        update could allocate the insertion.
        """
        _refuse_engine_account(producer, "producer")
        if self.last_alloc_label >= self.height:
            raise InvalidTransition(f"height {self.height} is already allocated")
        try:
            ids = list(oct_ids)
        except TypeError:
            raise DomainError(f"oct_ids must be an iterable of OCT ids, got {oct_ids!r}") from None
        if not ids:
            return ids
        seen = set()
        for oct_id in ids:
            # The mempool holds exactly the pending OCTs, keyed by int.
            if type(oct_id) is not int or oct_id not in self.mempool or oct_id in seen:
                raise InvalidTransition(f"oct {oct_id!r} is not in the mempool")
            seen.add(oct_id)
        self.inserted_by_height.setdefault(self.height, []).extend(map(self.mempool.pop, ids))
        self._inserts.append((producer, tuple(ids)))
        return ids

    def apply_update_tx(self, producer: str, alloc_label: int, price) -> UpdateReceipt:
        """One per block: move the pool price and allocate inserted OCTs.

        ``alloc_label`` is the allocation height H_a; OCTs inserted at
        heights up to it (and after the previous label) become the batch.
        The rebate fraction follows the schedule at gap ``H - H_a``.
        """
        if type(producer) is not str or producer in ENGINE_ACCOUNTS or producer.startswith("alloc:"):
            _refuse_engine_account(producer, "producer")  # raises
        h = self.height
        if self._update is not None:
            raise InvalidTransition(f"block {h} already carries an update transaction")
        if type(alloc_label) is not int:
            raise DomainError(f"alloc_label must be an integer, got {alloc_label!r}")
        if not (self.last_alloc_label < alloc_label <= h):
            raise InvalidTransition(
                f"allocation height {alloc_label} outside ({self.last_alloc_label}, {h}]"
            )
        p = check_price(price)
        beta = self.schedule.value_at(h - alloc_label)

        before = tuple.__new__(Reserves, self.balances[POOL])
        move = apply_rebated_move(before, p, beta)
        (vx, vy), (fx, fy) = move
        # The pool after the two move legs, subtracted in the order they book.
        # Live, it bounds the pool after the first leg too (the vault deposit is
        # >= 0) and the vault only receives, so of the move legs' payers only
        # the producer can overdraw: tested as ``_guard`` would, refused by it.
        snapshot = tuple.__new__(Reserves, (before.x - fx - vx, before.y - fy - vy))
        check_live(snapshot, "pool reserves")  # float parts: returns ``snapshot`` or raises
        funds = self.balances.get(producer) or (0.0, 0.0)
        if ((fx < 0.0 and funds[0] + fx < -_NEG_TOL * (abs(fx) + 1.0))
                or (fy < 0.0 and funds[1] + fy < -_NEG_TOL * (abs(fy) + 1.0))):
            _guard(POOL, producer, self.balances[POOL], funds, fx, fy)

        batch: list[Oct] = []
        if self.inserted_by_height:  # the label range holds OCTs only when an insertion waits
            heights = range(self.last_alloc_label + 1, alloc_label + 1)
            for height in heights:
                batch += self.inserted_by_height.get(height, ())
        ex, ey = escrow = (len(batch) * self.max_y * p, len(batch) * self.max_x / p)
        # The moved pool must back the open batches' earmarks and this one's.
        held_x, held_y = self.earmark() if self.open_allocations else (0.0, 0.0)
        need_x = held_x + (1.0 - beta) * ex
        need_y = held_y + (1.0 - beta) * ey
        if need_x > snapshot.x or need_y > snapshot.y:
            raise FundingError(
                f"pool reserves cannot back escrow earmarks ({need_x!r}, {need_y!r})",
                party=POOL,
            )
        if batch:  # the producer funds its share from what it holds after the move
            account = f"alloc:{alloc_label}"
            _guard(producer, account, (funds[0] + fx, funds[1] + fy), (0.0, 0.0),
                   beta * ex, beta * ey)
        self._transfer(POOL, producer, fx, fy)
        self._transfer(POOL, VAULT, vx, vy)
        if batch:
            self._transfer(producer, account, beta * ex, beta * ey)

        self.last_alloc_label = alloc_label
        self._update = tuple.__new__(UpdateReceipt, (h, alloc_label, beta, p, before, *move, escrow,
                                                     snapshot, producer, tuple(o.id for o in batch)))
        if batch:  # every insertion sits in a non-empty list
            for height in heights:
                self.inserted_by_height.pop(height, None)
            self.open_allocations[alloc_label] = self._update
            for oct in batch:
                self.allocated[oct.id] = oct
        return self._update

    def reveal_order(self, oct_id: int, order: Order):
        """Reveal an allocated OCT's order, checked only against its commitment: a
        batch closes with its window, and the digest binds the collateral's side and size."""
        oct = self.allocated.get(oct_id) if type(oct_id) is int else None
        if oct is None:
            raise InvalidTransition(f"oct {oct_id!r} is not allocated and unrevealed")
        if commit_order(order, str(oct_id)) != oct.commitment:
            raise InvalidTransition(f"order does not match the commitment of oct {oct_id}")
        del self.allocated[oct_id]
        self.reveals[oct_id] = (oct, order)
        self._revealed.append(oct_id)

    def execute_batch(self, label: int, proposed_price=None) -> ExecutionReceipt:
        """Settle one allocated batch and redistribute its escrow.

        Unrevealed OCTs burn their collateral. With ``proposed_price`` the
        engine verifies the proposal instead of trusting it: prices that fail
        the volume-maximality check are rejected, and the batch settles as
        the verifier settled it. The solver's price passes the same check.
        A refused execution books nothing. The execution receipt is also part
        of the current block's receipt.
        """
        u = self.open_allocations.get(label) if type(label) is int else None
        if u is None:
            raise InvalidTransition(f"no open allocation with label {label!r}")
        revealed = [self.reveals[i] for i in u.oct_ids if i in self.reveals]
        if self.height < u.height + self.reveal_window and len(revealed) < u.count:
            raise InvalidTransition(f"batch {label} is not due (reveals outstanding)")

        orders = tuple(order for _, order in revealed)
        book = Book(u.snapshot, orders)  # the solver's and the verifier's
        price = proposed_price
        if price is None:
            price = clearing_price_with_limits(CONSTANT_PRODUCT, u.snapshot, book).price
        settlement = verify_clearing_price(CONSTANT_PRODUCT, u.snapshot, book, price)
        if settlement is None:
            if proposed_price is None:
                raise InvariantViolation(f"solver clearing price {price!r} failed self-verification")
            raise VerificationError(f"proposed clearing price {price!r} failed verification")
        dx, dy = settlement.pool_delta
        rx = u.escrow[0] + dx
        ry = u.escrow[1] + dy
        # Each token's tolerance scales with that token's amounts only.
        tol_x, tol_y = _NEG_TOL * (abs(rx) + abs(dx) + 1.0), _NEG_TOL * (abs(ry) + abs(dy) + 1.0)
        if rx < -tol_x or ry < -tol_y:
            raise InvariantViolation(f"allocation escrow {label} breached: ({rx!r}, {ry!r})")

        burned = tuple(self.allocated.pop(i) for i in u.oct_ids if i in self.allocated)
        for oct in burned:
            self._transfer_token(COLLATERAL, BURNED, oct.collateral_token, oct.collateral)
        for oct, _ in revealed:
            del self.reveals[oct.id]

        # ``settle`` emits fills in ascending index order: walk them beside the orders.
        escrow, book_fill = f"alloc:{label}", self._book_fill
        fills = iter(settlement.fills)
        f = next(fills, None)
        for idx, (oct, _) in enumerate(revealed):
            if f is not None and f.index == idx:
                book_fill(escrow, oct, f.sold, f.bought)
                f = next(fills, None)
            else:
                book_fill(escrow, oct, 0.0, 0.0)

        # The remainder splits 1 - beta : beta, the ratio the escrow was funded
        # with. Pool reserves take their share of the batch imbalance; the rest
        # of the physical flows stay with the escrow (the producer's share).
        beta = u.beta
        rx, ry = max(rx, 0.0), max(ry, 0.0)
        to_pool = ((1.0 - beta) * rx, (1.0 - beta) * ry)
        to_producer = (beta * rx, beta * ry)
        self._transfer(escrow, POOL, (1.0 - beta) * dx, (1.0 - beta) * dy)
        self._transfer(escrow, u.producer, *to_producer)
        ax, ay = self.balances.setdefault(escrow, [0.0, 0.0])
        if abs(ax) > tol_x or abs(ay) > tol_y:
            raise InvariantViolation(f"escrow {escrow} not fully unwound: ({ax!r}, {ay!r})")
        # The settled escrow closes with supply unchanged: positive rounding dust
        # burns, and the producer, the escrow's residual claimant, pays negative dust.
        self._transfer(escrow, BURNED, max(ax, 0.0), max(ay, 0.0))
        self._transfer(escrow, u.producer, min(ax, 0.0), min(ay, 0.0))
        del self.balances[escrow], self.open_allocations[label]

        receipt = ExecutionReceipt(u, settlement, orders, tuple(oct for oct, _ in revealed),
                                   burned, to_pool, to_producer)
        self._executions.append(receipt)
        return receipt

    def advance_block(self, eps, converter: str) -> BlockReceipt:
        """Close the block: execute due batches, maybe re-enter the vault.

        A batch is due once all its OCTs revealed or its window elapsed.
        ``eps`` is the external price used for the vault conversion and
        ``converter`` the agent (normally the block producer) taking the
        value-neutral other side of it. The books must balance
        (``check_books``), the closing pool included.
        """
        eps = check_price(eps, "eps")
        if (type(converter) is not str or converter in ENGINE_ACCOUNTS
                or converter.startswith("alloc:")):
            _refuse_engine_account(converter, "converter")  # raises
        h = self.height
        if self.open_allocations:
            for label in sorted(self.open_allocations):
                u = self.open_allocations[label]
                if h >= u.height + self.reveal_window or all(i in self.reveals for i in u.oct_ids):
                    self.execute_batch(label)

        reentry = None
        freq = self.conversion_frequency
        vault = tuple(self.balances[VAULT])
        if freq > 0 and (h + 1) % freq == 0 and vault != (0.0, 0.0):
            added, flow = vault_reenter(vault, eps)
            # The converter swaps the vault basket for the price-preserving
            # one; value-neutral at eps, so outside liquidity may go through
            # a transiently negative account.
            self._transfer(VAULT, converter, *vault)
            self._transfer(converter, POOL, *added)
            reentry = tuple.__new__(ReentryReceipt, (added, flow, converter))

        self.check_books()
        closing = tuple(self.balances[POOL]), tuple(self.balances[VAULT])
        block = tuple.__new__(BlockReceipt, (h, eps, tuple(self._submitted), tuple(self._inserts),
                                             self._update, tuple(self._revealed),
                                             tuple(self._executions), reentry, *closing))
        self._open_block()
        self.height = h + 1
        return block
