package main

import (
	"testing"
	"time"

	"webwave/internal/core"
	"webwave/internal/netproto"
	"webwave/internal/transport"
)

// TestTapKeepsBatchAndLaneConn checks that a tapped connection implements
// BatchConn and LaneConn exactly when the connection it wraps does, on
// both ends of a TCP link and of a memory link. The server picks its
// batched send path by asserting LaneConn, so a tap that hid it would
// measure a different program.
func TestTapKeepsBatchAndLaneConn(t *testing.T) {
	cases := []struct {
		name string
		netw transport.Network
		addr string
	}{
		{"tcp", transport.TCPNetwork{Version: netproto.Version2}, "127.0.0.1:0"},
		{"memory", transport.NewMemoryNetwork(transport.MemoryOptions{}), "node-0"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			rec := newRecorder()
			tapped := &tapNetwork{inner: c.netw, rec: rec}
			ln, err := tapped.Listen(c.addr)
			if err != nil {
				t.Fatal(err)
			}
			defer ln.Close()

			// The raw network's own conns decide what the taps must offer.
			rawLn, err := c.netw.Listen(rawAddr(c.name))
			if err != nil {
				t.Fatal(err)
			}
			defer rawLn.Close()
			rawDial, err := c.netw.Dial(rawLn.Addr())
			if err != nil {
				t.Fatal(err)
			}
			defer rawDial.Close()
			rawAcc, err := rawLn.Accept()
			if err != nil {
				t.Fatal(err)
			}
			defer rawAcc.Close()

			dialed, err := tapped.Dial(ln.Addr())
			if err != nil {
				t.Fatal(err)
			}
			defer dialed.Close()
			accepted, err := ln.Accept()
			if err != nil {
				t.Fatal(err)
			}
			defer accepted.Close()

			for _, pair := range []struct {
				side     string
				raw, tap transport.Conn
			}{{"dialed", rawDial, dialed}, {"accepted", rawAcc, accepted}} {
				_, rawBatch := pair.raw.(transport.BatchConn)
				_, tapBatch := pair.tap.(transport.BatchConn)
				_, rawLane := pair.raw.(transport.LaneConn)
				_, tapLane := pair.tap.(transport.LaneConn)
				if rawBatch != tapBatch || rawLane != tapLane {
					t.Errorf("%s conn: raw batch=%v lane=%v, tapped batch=%v lane=%v", pair.side, rawBatch, rawLane, tapBatch, tapLane)
				}
				if c.name == "tcp" && !tapLane {
					t.Errorf("%s tcp conn lost LaneConn through the tap", pair.side)
				}
				if lc, ok := pair.tap.(transport.LaneConn); ok && lc.Lane(1) != lc.Lane(1) {
					t.Errorf("%s conn: Lane(1) is not the same lane on every call", pair.side)
				}
			}

			// A gateway request frame and its response make one transport
			// span under the HTTP request registered for (origin, doc).
			rec.start()
			rec.register(flightKey{origin: 3, doc: "doc-1"}, 42)
			req := &netproto.Envelope{V: netproto.Version2, Kind: netproto.TypeRequest, From: -1, To: 3, Origin: 3, ReqID: 7, Doc: "doc-1"}
			if lc, ok := dialed.(transport.LaneConn); ok {
				ln := lc.Lane(0)
				if err := ln.SendBuffered(req); err != nil {
					t.Fatal(err)
				}
				if err := ln.Flush(); err != nil {
					t.Fatal(err)
				}
			} else if err := dialed.Send(req); err != nil {
				t.Fatal(err)
			}
			got := recvKind(t, accepted, netproto.TypeRequest)
			resp := &netproto.Envelope{V: netproto.Version2, Kind: netproto.TypeResponse, From: 3, To: -1, ReqID: got.ReqID, Doc: got.Doc, ServedBy: 3}
			if err := accepted.Send(resp); err != nil {
				t.Fatal(err)
			}
			recvKind(t, dialed, netproto.TypeResponse)
			rep := rec.stop()
			if len(rep.Spans) != 1 || rep.Spans[0].ID != 42 || rep.Spans[0].Layer != "transport" || rep.Spans[0].Parent != "gateway" {
				t.Fatalf("spans = %+v, want one transport span for request 42", rep.Spans)
			}
			if rep.Frames != 2 || rep.ProtoFrames != 0 {
				t.Errorf("frames = %d (protocol %d), want 2 data frames", rep.Frames, rep.ProtoFrames)
			}
			if wantFlush := int64(0); c.name == "tcp" {
				if rep.Flushes < 1 {
					t.Errorf("tcp lane flush not counted")
				}
			} else if rep.Flushes != wantFlush {
				t.Errorf("memory conn counted %d flushes", rep.Flushes)
			}
		})
	}
}

func rawAddr(name string) string {
	if name == "tcp" {
		return "127.0.0.1:0"
	}
	return "node-raw"
}

func recvKind(t *testing.T, c transport.Conn, kind netproto.Type) *netproto.Envelope {
	t.Helper()
	type res struct {
		env *netproto.Envelope
		err error
	}
	ch := make(chan res, 1)
	go func() {
		env, err := c.Recv()
		ch <- res{env, err}
	}()
	select {
	case r := <-ch:
		if r.err != nil {
			t.Fatal(r.err)
		}
		if r.env.Kind != kind {
			t.Fatalf("got %s, want %s", r.env.Kind, kind)
		}
		return r.env
	case <-time.After(5 * time.Second):
		t.Fatalf("no %s frame", kind)
		return nil
	}
}

func TestCodecCostOnSamples(t *testing.T) {
	samples := []*netproto.Envelope{
		{V: netproto.Version2, Kind: netproto.TypeResponse, ReqID: 1, Doc: core.DocID("doc-1"), Body: make([]byte, 1024)},
		{V: netproto.Version2, Kind: netproto.TypeGossip, Load: 3.5},
	}
	size, enc, dec := codecCost(samples)
	want := 0
	for _, s := range samples {
		b, err := netproto.AppendFrameV2(nil, s)
		if err != nil {
			t.Fatal(err)
		}
		want += len(b)
	}
	if size != float64(want)/2 {
		t.Errorf("mean frame size %v, want %v", size, float64(want)/2)
	}
	if enc <= 0 || dec <= 0 {
		t.Errorf("encode %vns decode %vns, want both positive", enc, dec)
	}
}
