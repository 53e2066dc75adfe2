package icmpv6

import (
	"bytes"
	"reflect"
	"testing"

	"mip6mcast/internal/ipv6"
)

// FuzzICMPv6Parse checks that decoding arbitrary bytes never panics and
// that Marshal→Parse round-trips every accepted message: re-parsing the
// re-marshalled message yields the same message and the same bytes. The
// seed corpus lives in testdata/fuzz/FuzzICMPv6Parse.
func FuzzICMPv6Parse(f *testing.F) {
	src := ipv6.MustParseAddr("fe80::1")
	dst := ipv6.AllNodes
	f.Fuzz(func(t *testing.T, b []byte) {
		msg, err := Parse(src, dst, b)
		if err != nil {
			return
		}
		if typ := PeekType(b); msg.Type() != typ {
			t.Fatalf("parsed type %d, PeekType says %d", msg.Type(), typ)
		}
		m := Marshal(src, dst, msg)
		again, err := Parse(src, dst, m)
		if err != nil {
			t.Fatalf("re-marshalled %T does not parse: %v", msg, err)
		}
		// A Packet Too Big echoes at most maxInvoking bytes of the invoking
		// packet, so a longer one legitimately shrinks once.
		if ptb, ok := msg.(*PacketTooBig); !ok || len(ptb.Invoking) <= maxInvoking {
			if !reflect.DeepEqual(again, msg) {
				t.Fatalf("round trip changed the message:\n got %+v\nwant %+v", again, msg)
			}
		}
		if m2 := Marshal(src, dst, again); !bytes.Equal(m2, m) {
			t.Fatalf("Marshal is not a fixed point:\n got %x\nwant %x", m2, m)
		}
	})
}
