"""TLV option codec tests."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.lsl.options import (
    LooseSourceRoute,
    MulticastTreeOption,
    PaddingOption,
    decode_options,
    encode_options,
)


class TestPadding:
    def test_roundtrip(self):
        opts = decode_options(encode_options([PaddingOption(5)]))
        assert opts == [PaddingOption(5)]

    def test_zero_length(self):
        opts = decode_options(encode_options([PaddingOption(0)]))
        assert opts == [PaddingOption(0)]

    def test_nonzero_padding_rejected(self):
        wire = bytearray(encode_options([PaddingOption(3)]))
        wire[-1] = 0xFF
        with pytest.raises(ValueError, match="zero"):
            decode_options(bytes(wire))

    def test_negative_length_rejected(self):
        with pytest.raises(ValueError):
            PaddingOption(-1)


class TestLooseSourceRoute:
    def test_roundtrip(self):
        lsrr = LooseSourceRoute(
            hops=(("10.0.0.1", 9000), ("10.0.0.2", 9001))
        )
        out = decode_options(encode_options([lsrr]))
        assert out == [lsrr]

    def test_empty_route(self):
        lsrr = LooseSourceRoute(hops=())
        assert decode_options(encode_options([lsrr])) == [lsrr]

    def test_advance_pops_front(self):
        lsrr = LooseSourceRoute(hops=(("1.1.1.1", 1), ("2.2.2.2", 2)))
        hop, rest = lsrr.advance()
        assert hop == ("1.1.1.1", 1)
        assert rest.hops == (("2.2.2.2", 2),)

    def test_advance_exhausted(self):
        lsrr = LooseSourceRoute(hops=())
        hop, rest = lsrr.advance()
        assert hop is None
        assert rest is lsrr

    def test_bad_port_rejected(self):
        with pytest.raises(ValueError):
            LooseSourceRoute(hops=(("1.1.1.1", 99999),))

    def test_bad_ip_rejected(self):
        with pytest.raises(Exception):
            LooseSourceRoute(hops=(("nope", 1),))

    def test_misaligned_value_rejected(self):
        wire = bytearray(
            encode_options([LooseSourceRoute(hops=(("1.1.1.1", 1),))])
        )
        # shorten the value by one byte, fix up the length field
        wire = wire[:-1]
        wire[1:3] = (5).to_bytes(2, "big")
        with pytest.raises(ValueError, match="multiple"):
            decode_options(bytes(wire))

    @given(
        st.lists(
            st.tuples(
                st.lists(
                    st.integers(min_value=0, max_value=255),
                    min_size=4,
                    max_size=4,
                ),
                st.integers(min_value=0, max_value=0xFFFF),
            ),
            max_size=10,
        )
    )
    def test_roundtrip_property(self, raw_hops):
        hops = tuple(
            (".".join(map(str, octets)), port) for octets, port in raw_hops
        )
        lsrr = LooseSourceRoute(hops=hops)
        assert decode_options(encode_options([lsrr])) == [lsrr]


class TestMulticastTree:
    def tree(self):
        return MulticastTreeOption(
            nodes=(
                (-1, "10.0.0.1", 1000),
                (0, "10.0.0.2", 1001),
                (0, "10.0.0.3", 1002),
                (1, "10.0.0.4", 1003),
            )
        )

    def test_roundtrip(self):
        t = self.tree()
        assert decode_options(encode_options([t])) == [t]

    def test_children_of(self):
        t = self.tree()
        assert t.children_of(0) == [1, 2]
        assert t.children_of(1) == [3]
        assert t.children_of(3) == []

    def test_root_must_come_first(self):
        with pytest.raises(ValueError):
            MulticastTreeOption(nodes=((0, "1.1.1.1", 1),))

    def test_second_root_rejected(self):
        with pytest.raises(ValueError):
            MulticastTreeOption(
                nodes=((-1, "1.1.1.1", 1), (-1, "2.2.2.2", 2))
            )

    def test_forward_reference_rejected(self):
        with pytest.raises(ValueError):
            MulticastTreeOption(
                nodes=((-1, "1.1.1.1", 1), (2, "2.2.2.2", 2), (0, "3.3.3.3", 3))
            )


class TestMultipleOptions:
    def test_order_preserved(self):
        opts = [
            PaddingOption(2),
            LooseSourceRoute(hops=(("9.9.9.9", 9),)),
            PaddingOption(0),
        ]
        assert decode_options(encode_options(opts)) == opts

    def test_unknown_kind_rejected(self):
        wire = bytes([200, 0, 0])  # kind 200, zero length
        with pytest.raises(ValueError, match="unknown"):
            decode_options(wire)

    def test_truncated_tl_rejected(self):
        with pytest.raises(ValueError, match="truncated"):
            decode_options(b"\x01")

    def test_truncated_value_rejected(self):
        wire = bytes([0, 0, 10]) + b"\x00" * 3  # claims 10, has 3
        with pytest.raises(ValueError, match="truncated"):
            decode_options(wire)

    def test_empty_wire_is_no_options(self):
        assert decode_options(b"") == []


class TestResumeOffset:
    def test_roundtrip(self):
        from repro.lsl.options import ResumeOffset

        opt = ResumeOffset(total=1 << 33, offset=12345)
        assert decode_options(encode_options([opt])) == [opt]

    def test_default_offset_zero(self):
        from repro.lsl.options import ResumeOffset

        assert ResumeOffset(total=100).offset == 0

    def test_offset_beyond_total_rejected(self):
        from repro.lsl.options import ResumeOffset

        with pytest.raises(ValueError, match="beyond"):
            ResumeOffset(total=10, offset=11)

    def test_out_of_range_rejected(self):
        from repro.lsl.options import ResumeOffset

        with pytest.raises(ValueError, match="64-bit"):
            ResumeOffset(total=-1)
        with pytest.raises(ValueError, match="64-bit"):
            ResumeOffset(total=1 << 64)

    def test_truncated_value_rejected(self):
        from repro.lsl.options import ResumeOffset

        wire = bytearray(encode_options([ResumeOffset(total=5)]))
        wire = wire[:-8]
        wire[1:3] = (8).to_bytes(2, "big")
        with pytest.raises(ValueError):
            decode_options(bytes(wire))

    def test_rides_alongside_lsrr(self):
        from repro.lsl.options import ResumeOffset

        opts = [
            LooseSourceRoute(hops=(("10.0.0.1", 9000),)),
            ResumeOffset(total=999, offset=42),
        ]
        assert decode_options(encode_options(opts)) == opts


class TestStripeOption:
    def test_roundtrip(self):
        from repro.lsl.options import StripeOption

        opt = StripeOption(index=3, count=8, block=64 << 10)
        assert decode_options(encode_options([opt])) == [opt]

    def test_default_block(self):
        from repro.lsl.options import StripeOption

        assert StripeOption(index=0, count=2).block == 16 << 10

    def test_index_outside_count_rejected(self):
        from repro.lsl.options import StripeOption

        with pytest.raises(ValueError, match="outside"):
            StripeOption(index=2, count=2)
        with pytest.raises(ValueError, match="outside"):
            StripeOption(index=-1, count=2)

    def test_zero_count_rejected(self):
        from repro.lsl.options import StripeOption

        with pytest.raises(ValueError, match="count"):
            StripeOption(index=0, count=0)

    def test_zero_block_rejected(self):
        from repro.lsl.options import StripeOption

        with pytest.raises(ValueError, match="block"):
            StripeOption(index=0, count=2, block=0)

    def test_truncated_value_rejected(self):
        from repro.lsl.options import StripeOption

        wire = bytearray(encode_options([StripeOption(index=1, count=4)]))
        wire[1:3] = (4).to_bytes(2, "big")  # claim a short value
        with pytest.raises(ValueError, match="stripe option"):
            decode_options(bytes(wire[: 3 + 4]))

    @given(
        # count in 1..0xFFFF first, then an index below it: every drawn
        # layout is one StripeOption accepts
        layout=st.integers(min_value=1, max_value=0xFFFF).flatmap(
            lambda count: st.tuples(
                st.integers(min_value=0, max_value=count - 1), st.just(count)
            )
        ),
        block=st.integers(min_value=1, max_value=0xFFFF_FFFF),
    )
    def test_roundtrip_property(self, layout, block):
        from repro.lsl.options import StripeOption

        index, count = layout
        opt = StripeOption(index=index, count=count, block=block)
        assert decode_options(encode_options([opt])) == [opt]


class TestMulticastWireOptionsUnderCorruption:
    """The full multicast option set survives encode/decode intact, and a
    corrupted header is rejected loudly rather than misparsed."""

    def full_option_set(self):
        from repro.lsl.options import ResumeOffset, StripeOption

        return [
            MulticastTreeOption(
                nodes=(
                    (-1, "10.0.0.1", 9000),
                    (0, "10.0.0.2", 9001),
                    (1, "10.0.0.3", 9002),
                )
            ),
            LooseSourceRoute(hops=(("10.0.0.1", 9000), ("10.0.0.2", 9001))),
            ResumeOffset(total=1 << 20),
            StripeOption(index=1, count=4, block=32 << 10),
        ]

    def test_full_set_roundtrips_in_a_header(self):
        from repro.lsl.header import SessionHeader, SessionType, new_session_id

        header = SessionHeader(
            session_id=new_session_id(),
            src_ip="127.0.0.1",
            dst_ip="10.0.0.3",
            src_port=0,
            dst_port=9002,
            session_type=SessionType.MULTICAST,
            options=tuple(self.full_option_set()),
        )
        restored, consumed = SessionHeader.decode(header.encode())
        assert consumed == len(header.encode())
        assert restored.options == header.options
        assert restored.session_type == SessionType.MULTICAST

    def test_faultplan_corruption_is_rejected_not_misparsed(self):
        from repro.lsl.faults import FaultKind, FaultPlan, FaultRule
        from repro.lsl.header import SessionHeader, SessionType, new_session_id

        header = SessionHeader(
            session_id=new_session_id(),
            src_ip="127.0.0.1",
            dst_ip="10.0.0.3",
            src_port=0,
            dst_port=9002,
            session_type=SessionType.MULTICAST,
            options=tuple(self.full_option_set()),
        )
        plan = FaultPlan(
            [FaultRule(site="source", kind=FaultKind.CORRUPT_HEADER)]
        )
        corrupted = plan.corrupt_header("source", header.encode())
        assert corrupted != header.encode()
        with pytest.raises(ValueError):
            SessionHeader.decode(corrupted)
        # the rule is consumed: the retry's header goes out clean
        clean = plan.corrupt_header("source", header.encode())
        assert SessionHeader.decode(clean)[0].options == header.options

    def test_every_single_byte_flip_never_misparses_options(self):
        # flip each option byte in turn: decode must either reject or
        # reproduce a valid option list -- never crash some other way
        opts = self.full_option_set()
        wire = bytearray(encode_options(opts))
        for i in range(len(wire)):
            mutated = bytearray(wire)
            mutated[i] ^= 0xFF
            try:
                decode_options(bytes(mutated))
            except ValueError:
                continue
