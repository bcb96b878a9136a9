"""
One block, end to end
=====================

The chain state ties everything together. Users commit hashed orders with
max-size collateral; the producer writes commitments into a block and
attaches one price update whose allocation label determines the rebate it
pays; allocated orders reveal within a window and settle as a batch at a
uniform price against the update's snapshot; whatever fails to reveal burns
its collateral. Every token movement goes through one ledger, so we can
watch each account as the protocol steps.
"""
from v0lver import (
    CONSTANT_PRODUCT,
    ChainState,
    Order,
    OrderSide,
    RebateSchedule,
    Reserves,
)


def show(chain, label):
    print(f"--- {label}")
    for party, (bx, by) in sorted(chain.balances.items()):
        if abs(bx) > 1e-12 or abs(by) > 1e-12:
            print(f"    {party:10s} x={bx:12.4f}  y={by:10.6f}")


chain = ChainState(
    Reserves(10_000.0, 100.0),
    RebateSchedule(z_max=4, beta0=0.8),
    max_x=10.0,
    max_y=0.1,
    reveal_window=2,
    conversion_frequency=1,
    balances={"alice": (1_000.0, 10.0), "bob": (1_000.0, 10.0),
              "prod": (10_000.0, 100.0)},
)
show(chain, "genesis")

# Alice wants y, Bob sells y. They commit hashes; the engine holds the full
# per-order bound as collateral and forgets the order bodies.
alice_order = Order(OrderSide.BUY_Y, 5.0, limit=104.0)
bob_order = Order(OrderSide.SELL_Y, 0.05)
a = chain.submit_oct("alice", alice_order)
b = chain.submit_oct("bob", bob_order)
print(f"\ncommitments: {a.commitment[:16]}..., {b.commitment[:16]}...")
show(chain, "after submit (collateral posted)")

# The producer writes both into the block and updates the price to the
# external market's 102. Label = current height, so gap 0 and beta 0.8:
# the producer runs 20% of the arbitrage swap, the pool sheds into the vault.
chain.insert_octs("prod", [a.id, b.id])
receipt = chain.apply_update_tx("prod", 0, 102.0)
print(f"\nupdate: gap {receipt.gap}, beta {receipt.beta}, "
      f"pool now prices {CONSTANT_PRODUCT.price(chain.pool_reserves()):.2f}")
print(f"batch of {receipt.count} allocated at label {receipt.label}; "
      f"escrow sized {receipt.escrow}")
show(chain, "after update (escrow + vault funded)")

# Both users reveal. The batch becomes due immediately since everyone
# revealed; the block boundary settles it and converts the vault.
chain.reveal_order(a.id, alice_order)
chain.reveal_order(b.id, bob_order)
block = chain.advance_block(102.0, converter="prod")
er = block.executions[0]
s = er.settlement
print(f"\nbatch settled at {s.price:.4f} "
      f"(snapshot price was {receipt.snapshot.x / receipt.snapshot.y:.4f})")
for f in s.fills:
    print(f"    {er.revealed[f.index].owner} sold {f.sold:.4f}, bought {f.bought:.6f}")
print(f"escrow remainder split pool/producer: {er.to_pool} / {er.to_producer}")
show(chain, "after block 0 (settled, vault re-entered)")

print(f"\nconservation error: {chain.conservation_error():.2e}")
print(f"pool k: {CONSTANT_PRODUCT.invariant(chain.pool_reserves()):.1f} (started at 1000000.0)")

# A second block where nobody reveals: the unrevealed order burns.
c = chain.submit_oct("alice", Order(OrderSide.BUY_Y, 3.0))
chain.insert_octs("prod", [c.id])
chain.apply_update_tx("prod", 1, 102.5)
chain.advance_block(102.5, converter="prod")
chain.advance_block(102.5, converter="prod")
block = chain.advance_block(102.5, converter="prod")
for oct in block.executions[0].burned:
    print(f"\nunrevealed oct {oct.id} of {oct.owner} burned "
          f"{oct.collateral} {oct.collateral_token} of collateral")
show(chain, "after the burn")
