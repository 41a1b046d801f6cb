"""Property tests for SessionLedger: generations and ack accounting.

The ledger arbitrates between a stalled old connection handler and the
reconnect that superseded it.  Whatever the interleaving of claims and
appends, only the newest claimant may extend the staged bytes, every
byte is counted as fresh exactly once, and ``read()`` returns exactly
what was accepted.  The same holds per stripe, for any stripe count:
a plain session is the one-stripe case.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.lsl.faults import SessionLedger

# an op is ("claim",) or ("append", use_stale_generation, payload)
_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("claim")),
        st.tuples(
            st.just("append"),
            st.booleans(),
            st.binary(min_size=1, max_size=64),
        ),
    ),
    max_size=60,
)


@given(_OPS)
@settings(max_examples=200)
def test_interleaved_generations_roundtrip(ops):
    """Stale appenders are refused; read() round-trips accepted bytes."""
    ledger = SessionLedger(total=1 << 20)
    generation, acked = ledger.claim()
    assert (generation, acked) == (1, 0)
    stale = generation
    expected = bytearray()
    for op in ops:
        if op[0] == "claim":
            stale = generation
            generation, acked = ledger.claim()
            assert generation > stale
            assert acked == len(expected)
        else:
            _, use_stale, payload = op
            gen = stale if use_stale else generation
            accepted = ledger.append(gen, payload)
            if gen == generation:
                assert accepted
                expected += payload
            else:
                assert not accepted
            assert ledger.acked == len(expected)
    assert ledger.read(0, ledger.acked) == bytes(expected)
    assert ledger.complete == (len(expected) >= ledger.total)


@given(
    st.lists(
        st.tuples(
            # how far back from the high-water mark the send restarts
            st.integers(min_value=0, max_value=256),
            st.integers(min_value=1, max_value=256),  # send length
        ),
        min_size=1,
        max_size=40,
    )
)
@settings(max_examples=200)
def test_no_byte_counted_fresh_twice(sends):
    """Across overlapping sends, fresh + retransmitted bytes balance:
    every byte below the final high-water mark was counted as fresh
    exactly once, no matter how the ranges overlapped."""
    ledger = SessionLedger(total=1 << 20)
    fresh = 0
    high = 0
    for back, length in sends:
        start = max(0, high - back)
        end = start + length
        retransmitted = ledger.note_sent(start, end)
        assert 0 <= retransmitted <= end - start
        fresh += (end - start) - retransmitted
        high = max(high, end)
        assert ledger.high_water == high
    assert fresh == high


def _gather(payload: bytes, index: int, count: int, block: int) -> bytes:
    """Stripe ``index``'s slice: blocks ``j`` with ``j % count == index``."""
    return b"".join(
        payload[start : start + block]
        for start in range(index * block, len(payload), count * block)
    )


@given(st.data())
@settings(max_examples=150)
def test_stripes_reassemble_across_reconnects(data):
    """For 1-3 stripes, random chunk sizes and random mid-stripe
    reconnects: acks track the bytes received, stale generations are
    refused, and the assembled payload is byte-exact."""
    stripes = data.draw(st.sampled_from([1, 2, 3]), label="stripes")
    block = data.draw(st.integers(min_value=1, max_value=64), label="block")
    total = data.draw(st.integers(min_value=0, max_value=600), label="total")
    payload = bytes((i * 131 + 7) % 251 for i in range(total))
    slices = [_gather(payload, k, stripes, block) for k in range(stripes)]
    ledger = SessionLedger(total, stripes=stripes, block=block)
    assert [ledger.stripe_total(k) for k in range(stripes)] == [
        len(part) for part in slices
    ]
    generation = [ledger.claim_stripe(k)[0] for k in range(stripes)]
    received = [0] * stripes
    while True:
        open_stripes = [
            k for k in range(stripes) if received[k] < len(slices[k])
        ]
        if not open_stripes:
            break
        k = data.draw(st.sampled_from(open_stripes), label="stripe")
        if data.draw(st.integers(min_value=0, max_value=3)) == 0:
            # reconnect mid-stripe: the new claim resumes at the stripe's
            # watermark and fences off the old connection
            stale = generation[k]
            generation[k], acked = ledger.claim_stripe(k)
            assert generation[k] > stale
            assert acked == received[k]
            assert not ledger.append_stripe(k, stale, b"stale")
        size = data.draw(st.integers(min_value=1, max_value=97), label="size")
        chunk = slices[k][received[k] : received[k] + size]
        assert ledger.append_stripe(k, generation[k], chunk)
        received[k] += len(chunk)
        assert ledger.stripe_acked(k) == received[k]
        assert ledger.acked == sum(received)
    assert ledger.complete
    assert ledger.data == payload
    for k, part in enumerate(slices):
        assert ledger.read_stripe(k, 0, len(part)) == part
    assert ledger.claim_completion()
    assert not ledger.claim_completion()
