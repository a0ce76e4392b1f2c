package wire

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"net"
	"testing"
	"time"
)

func TestFrameRoundtrip(t *testing.T) {
	bodies := [][]byte{
		nil,
		{},
		[]byte("x"),
		bytes.Repeat([]byte{0xAB}, 1<<16),
	}
	for _, want := range bodies {
		var buf bytes.Buffer
		if err := WriteFrame(&buf, 0x42, want); err != nil {
			t.Fatal(err)
		}
		typ, got, err := ReadFrame(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if typ != 0x42 || !bytes.Equal(got, want) {
			t.Fatalf("roundtrip: type %#x, %d bytes, want %d", typ, len(got), len(want))
		}
		if buf.Len() != 0 {
			t.Fatalf("%d trailing bytes after frame", buf.Len())
		}
	}
}

func TestFrameErrors(t *testing.T) {
	var good bytes.Buffer
	if err := WriteFrame(&good, 1, []byte("hello frame")); err != nil {
		t.Fatal(err)
	}
	raw := good.Bytes()

	// Truncations at every prefix must error, never panic.
	for i := 0; i < len(raw); i++ {
		if _, _, err := ReadFrame(bytes.NewReader(raw[:i])); err == nil {
			t.Fatalf("truncation at %d bytes accepted", i)
		}
	}

	// A flipped body byte fails the CRC.
	bad := append([]byte(nil), raw...)
	bad[len(bad)-1] ^= 0xFF
	if _, _, err := ReadFrame(bytes.NewReader(bad)); err == nil {
		t.Fatal("corrupted body passed CRC")
	}

	// A length prefix over the cap is rejected before any body read.
	huge := append([]byte(nil), raw...)
	binary.LittleEndian.PutUint32(huge[1:], MaxBody+1)
	if _, _, err := ReadFrame(bytes.NewReader(huge)); err == nil {
		t.Fatal("oversized length prefix accepted")
	}

	// Oversized writes are refused too.
	if err := WriteFrame(&bytes.Buffer{}, 1, make([]byte, MaxBody+1)); err == nil {
		t.Fatal("oversized frame body written")
	}
}

func TestHelloVersionSkew(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteHello(&buf); err != nil {
		t.Fatal(err)
	}
	flags, err := ReadHello(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("matching hello rejected: %v", err)
	}
	if flags != HelloFlags {
		t.Fatalf("hello flags %#x, want %#x", flags, HelloFlags)
	}
	if flags&HelloFlagTraceContext == 0 {
		t.Fatal("our own hello does not advertise trace context")
	}

	skew := append([]byte(nil), buf.Bytes()...)
	binary.LittleEndian.PutUint16(skew[8:], FormatVersion+1)
	var ve *VersionError
	if _, err := ReadHello(bytes.NewReader(skew)); !errors.As(err, &ve) || ve.Got != FormatVersion+1 {
		t.Fatalf("version skew: %v, want *VersionError", err)
	}
	// A v1 hello (no flags word) is rejected on the version word alone,
	// before the flags read could block on the missing bytes.
	v1 := append([]byte(nil), buf.Bytes()[:10]...)
	binary.LittleEndian.PutUint16(v1[8:], 1)
	if _, err := ReadHello(bytes.NewReader(v1)); !errors.As(err, &ve) || ve.Got != 1 {
		t.Fatalf("v1 hello: %v, want *VersionError{1}", err)
	}

	if _, err := ReadHello(bytes.NewReader([]byte("NOTWIRE\x00\x01\x00"))); err == nil {
		t.Fatal("bad magic accepted")
	}
	if _, err := ReadHello(bytes.NewReader(buf.Bytes()[:5])); err == nil {
		t.Fatal("short hello accepted")
	}
	// Truncated after the version word: the flags read must error.
	if _, err := ReadHello(bytes.NewReader(buf.Bytes()[:10])); err == nil {
		t.Fatal("flagless current-version hello accepted")
	}
}

// TestServerPoolRoundtrip runs a real TCP echo server and exercises the
// client pool: handshake, frame roundtrip, and idle-connection reuse.
func TestServerPoolRoundtrip(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := Serve(l, func(c *Conn) {
		for {
			typ, body, err := c.ReadFrame()
			if err != nil {
				return
			}
			if err := c.WriteFrame(typ+1, body); err != nil {
				return
			}
		}
	})
	defer srv.Close()

	p := NewPool(l.Addr().String())
	defer p.Close()

	call := func(wantReused bool) {
		t.Helper()
		c, reused, err := p.Get(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if reused != wantReused {
			t.Fatalf("reused=%v, want %v", reused, wantReused)
		}
		c.SetDeadline(time.Now().Add(5 * time.Second))
		if err := c.WriteFrame(7, []byte("ping")); err != nil {
			t.Fatal(err)
		}
		typ, body, err := c.ReadFrame()
		if err != nil {
			t.Fatal(err)
		}
		if typ != 8 || string(body) != "ping" {
			t.Fatalf("echo: type %d body %q", typ, body)
		}
		p.Put(c)
	}
	call(false)
	call(true)

	st := p.Stats()
	if st.Dials != 1 || st.Reuses != 1 {
		t.Fatalf("pool stats %+v, want 1 dial / 1 reuse", st)
	}
}

// TestConnWatchClose: a server answering a request learns when its
// peer hangs up, and a watch stopped without a hang-up leaves the next
// request frame intact for ReadFrame.
func TestConnWatchClose(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	closed := make(chan struct{})
	got := make(chan string, 2)
	srv := Serve(l, func(c *Conn) {
		for {
			_, body, err := c.ReadFrame()
			if err != nil {
				return
			}
			got <- string(body)
			stop := c.WatchClose(func() { close(closed) })
			if string(body) == "first" {
				// Answer, then let the peer send its next request before
				// the watch is stopped: the bytes must stay buffered.
				c.WriteFrame(1, nil)
				time.Sleep(50 * time.Millisecond)
				stop()
				continue
			}
			select {
			case <-closed:
			case <-time.After(5 * time.Second):
			}
			stop()
			return
		}
	})
	defer srv.Close()

	p := NewPool(l.Addr().String())
	defer p.Close()
	c, _, err := p.Get(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	c.SetDeadline(time.Now().Add(5 * time.Second))
	if err := c.WriteFrame(7, []byte("first")); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.ReadFrame(); err != nil {
		t.Fatal(err)
	}
	if err := c.WriteFrame(7, []byte("second")); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"first", "second"} {
		select {
		case b := <-got:
			if b != want {
				t.Fatalf("server read %q, want %q", b, want)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("server never read %q", want)
		}
	}
	select {
	case <-closed:
		t.Fatal("onClose fired while the peer was still connected")
	default:
	}
	c.Close()
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("onClose never fired after the peer hung up")
	}
}
