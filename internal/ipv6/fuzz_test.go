package ipv6

import (
	"bytes"
	"testing"
)

// FuzzParseUDP checks that decoding arbitrary bytes never panics and that
// an accepted datagram re-marshals to exactly the bytes it came from. The
// seed corpus lives in testdata/fuzz/FuzzParseUDP.
func FuzzParseUDP(f *testing.F) {
	src := MustParseAddr("2001:db8::1")
	dst := MustParseAddr("ff0e::7")
	f.Fuzz(func(t *testing.T, b []byte) {
		u, err := ParseUDP(src, dst, b)
		if err != nil {
			return
		}
		if len(u.Payload) > 0 && &u.Payload[0] != &b[UDPHeaderLen] {
			t.Fatal("payload does not alias the datagram")
		}
		if m := u.Marshal(src, dst); !bytes.Equal(m, b) {
			t.Fatalf("round trip changed the datagram:\n got %x\nwant %x", m, b)
		}
	})
}
