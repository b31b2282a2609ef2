package main

// Taps at the service's public boundaries, installed only in traced runs:
// an http.Handler around the gateway and a transport.Network handed to the
// cluster through cluster.Config.Network. They record spans that share the
// driver's request id, send timings, frame counts and sampled envelopes.
// Recording is off outside a measurement window, so warm-up traffic passes
// straight through.

import (
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"webwave/internal/core"
	"webwave/internal/netproto"
	"webwave/internal/transport"
)

const (
	enterHeader = "X-WebWave-Enter" // the driver's scheduled entry node
	idHeader    = "X-Bench-Id"      // the driver's request id, traced runs only

	sampleEvery = 8    // sample one sent frame in this many for the codec figures
	maxSamples  = 1024 // sampled envelopes kept per window
)

// flightKey identifies an HTTP request inside the gateway: the tree request
// frame it sends carries the same entry node and document.
type flightKey struct {
	origin int
	doc    core.DocID
}

// recorder collects one window's observations from every tap.
type recorder struct {
	on atomic.Bool

	frames, protoFrames, flushes, gwErrors atomic.Int64

	mu       sync.Mutex
	spans    []span
	sendNs   []int64
	samples  []*netproto.Envelope
	inflight map[flightKey][]uint64
}

func newRecorder() *recorder {
	return &recorder{inflight: make(map[flightKey][]uint64)}
}

// start clears the previous window and begins recording.
func (r *recorder) start() {
	r.mu.Lock()
	r.spans, r.sendNs, r.samples = nil, nil, nil
	r.inflight = make(map[flightKey][]uint64)
	r.mu.Unlock()
	for _, c := range []*atomic.Int64{&r.frames, &r.protoFrames, &r.flushes, &r.gwErrors} {
		c.Store(0)
	}
	r.on.Store(true)
}

// traceReport is one window's tap output, served to the driver.
type traceReport struct {
	Spans       []span  `json:"spans"`
	SendP50Ns   float64 `json:"send_p50_ns"`
	SendP99Ns   float64 `json:"send_p99_ns"`
	Frames      int64   `json:"frames"`
	ProtoFrames int64   `json:"proto_frames"` // frames other than requests and responses
	Flushes     int64   `json:"flushes"`
	GwErrors    int64   `json:"gateway_errors"`
	FrameBytes  float64 `json:"frame_bytes"` // mean v2 frame size of the samples
	EncodeNs    float64 `json:"encode_ns"`
	DecodeNs    float64 `json:"decode_ns"`
}

// stop ends recording and summarizes the window. The codec figures come
// from re-encoding the sampled envelopes with the v2 codec here, off the
// request path.
func (r *recorder) stop() traceReport {
	r.on.Store(false)
	r.mu.Lock()
	defer r.mu.Unlock()
	rep := traceReport{
		Spans:       r.spans,
		Frames:      r.frames.Load(),
		ProtoFrames: r.protoFrames.Load(),
		Flushes:     r.flushes.Load(),
		GwErrors:    r.gwErrors.Load(),
	}
	if len(r.sendNs) > 0 {
		d := make(dist, len(r.sendNs))
		for i, ns := range r.sendNs {
			d[i] = float64(ns)
		}
		sort.Float64s(d)
		rep.SendP50Ns, rep.SendP99Ns = d.quantile(0.5), d.quantile(0.99)
	}
	rep.FrameBytes, rep.EncodeNs, rep.DecodeNs = codecCost(r.samples)
	return rep
}

// codecCost encodes every sample with AppendFrameV2 and decodes it back
// with DecodeEnvelopeV2, returning the mean frame size and the mean time of
// each, per frame. Each pass runs several times so the figures rest on
// more than one clock reading per frame.
func codecCost(samples []*netproto.Envelope) (bytes, encNs, decNs float64) {
	if len(samples) == 0 {
		return 0, 0, 0
	}
	const reps = 8
	frames := make([][]byte, len(samples))
	total := 0
	for i, env := range samples {
		b, err := netproto.AppendFrameV2(nil, env)
		if err != nil {
			continue
		}
		frames[i] = b
		total += len(b)
	}
	var buf []byte
	t0 := time.Now()
	for k := 0; k < reps; k++ {
		for _, env := range samples {
			buf, _ = netproto.AppendFrameV2(buf[:0], env)
		}
	}
	enc := time.Since(t0)
	var env netproto.Envelope
	var in netproto.DocInterner
	t0 = time.Now()
	for k := 0; k < reps; k++ {
		for _, f := range frames {
			if len(f) > 4 {
				_ = netproto.DecodeEnvelopeV2(&env, f[4:], &in)
			}
		}
	}
	dec := time.Since(t0)
	n := float64(len(samples) * reps)
	return float64(total) / float64(len(samples)), float64(enc.Nanoseconds()) / n, float64(dec.Nanoseconds()) / n
}

// noteFrame counts one outgoing frame and samples it. Stats scrapes are
// the benchmark's own traffic and are left out.
func (r *recorder) noteFrame(env *netproto.Envelope) {
	switch env.Kind {
	case netproto.TypeStatsQuery, netproto.TypeStatsReply:
		return
	case netproto.TypeRequest, netproto.TypeResponse:
	default:
		r.protoFrames.Add(1)
	}
	if r.frames.Add(1)%sampleEvery != 0 {
		return
	}
	cp := *env
	cp.Body = append([]byte(nil), env.Body...)
	cp.Stats = nil
	r.mu.Lock()
	if len(r.samples) < maxSamples {
		r.samples = append(r.samples, &cp)
	}
	r.mu.Unlock()
}

func (r *recorder) noteSend(d time.Duration) {
	r.mu.Lock()
	r.sendNs = append(r.sendNs, d.Nanoseconds())
	r.mu.Unlock()
}

func (r *recorder) addSpan(s span) {
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// claim returns the driver id of the HTTP request in flight for (origin,
// doc). Of two concurrent requests for the same pair, the older one gets
// the frame.
func (r *recorder) claim(k flightKey) (uint64, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	ids := r.inflight[k]
	if len(ids) == 0 {
		return 0, false
	}
	r.inflight[k] = ids[1:]
	return ids[0], true
}

func (r *recorder) register(k flightKey, id uint64) {
	r.mu.Lock()
	r.inflight[k] = append(r.inflight[k], id)
	r.mu.Unlock()
}

// unregister drops id if the gateway never sent a frame for it (an early
// error reply).
func (r *recorder) unregister(k flightKey, id uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	ids := r.inflight[k]
	for i, x := range ids {
		if x == id {
			r.inflight[k] = append(ids[:i:i], ids[i+1:]...)
			break
		}
	}
	if len(r.inflight[k]) == 0 {
		delete(r.inflight, k)
	}
}

// ---------------------------------------------------------------------------
// HTTP tap.

// httpTap wraps the gateway: one "gateway" span per traced GET.
type httpTap struct {
	next http.Handler
	rec  *recorder
}

type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}

func (h *httpTap) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	id, err := strconv.ParseUint(r.Header.Get(idHeader), 10, 64)
	if !h.rec.on.Load() || r.Method != http.MethodGet || err != nil {
		h.next.ServeHTTP(w, r)
		return
	}
	origin, _ := strconv.Atoi(r.Header.Get(enterHeader))
	k := flightKey{origin: origin, doc: core.DocID(strings.TrimPrefix(r.URL.Path, "/docs/"))}
	h.rec.register(k, id)
	sw := &statusWriter{ResponseWriter: w}
	start := time.Now()
	h.next.ServeHTTP(sw, r)
	end := time.Now()
	h.rec.unregister(k, id)
	if sw.status >= 300 {
		h.rec.gwErrors.Add(1)
	}
	h.rec.addSpan(span{ID: id, Layer: "gateway", Parent: "http", Start: start.UnixNano(), End: end.UnixNano()})
}

// ---------------------------------------------------------------------------
// Transport tap.

// tapNetwork wraps every connection the cluster and the gateway open.
type tapNetwork struct {
	inner transport.Network
	rec   *recorder
}

func (n *tapNetwork) Listen(addr string) (transport.Listener, error) {
	l, err := n.inner.Listen(addr)
	if err != nil {
		return nil, err
	}
	return &tapListener{Listener: l, rec: n.rec}, nil
}

func (n *tapNetwork) Dial(addr string) (transport.Conn, error) {
	c, err := n.inner.Dial(addr)
	if err != nil {
		return nil, err
	}
	return wrapConn(c, n.rec), nil
}

// DialFrom keeps source attribution working through the tap: it dials the
// way transport.DialOn would have dialed the wrapped network.
func (n *tapNetwork) DialFrom(src, dst string) (transport.Conn, error) {
	c, err := transport.DialOn(n.inner, src, dst)
	if err != nil {
		return nil, err
	}
	return wrapConn(c, n.rec), nil
}

type tapListener struct {
	transport.Listener
	rec *recorder
}

func (l *tapListener) Accept() (transport.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return wrapConn(c, l.rec), nil
}

// wrapConn returns a tap implementing BatchConn or LaneConn exactly when c
// does: the server type-asserts LaneConn to choose its batched send path,
// and a plain wrapper would silently turn that off.
func wrapConn(c transport.Conn, rec *recorder) transport.Conn {
	base := &tapConn{inner: c, rec: rec, pending: make(map[uint64]pendingReq)}
	switch cc := c.(type) {
	case transport.LaneConn:
		return &tapLaneConn{tapBatchConn: tapBatchConn{tapConn: base, batch: cc}, lanes: cc}
	case transport.BatchConn:
		return &tapBatchConn{tapConn: base, batch: cc}
	default:
		return base
	}
}

// pendingReq is a gateway request frame awaiting its response.
type pendingReq struct {
	id    uint64
	start int64 // unix ns
}

type tapConn struct {
	inner transport.Conn
	rec   *recorder

	mu      sync.Mutex
	pending map[uint64]pendingReq // gateway request id -> driver id
}

// before notes an outgoing frame; it returns the zero time when recording
// is off.
func (c *tapConn) before(env *netproto.Envelope) time.Time {
	if !c.rec.on.Load() {
		return time.Time{}
	}
	now := time.Now()
	c.rec.noteFrame(env)
	// The gateway's request frames are the only requests sent from
	// outside the tree (From -1).
	if env.Kind == netproto.TypeRequest && env.From == -1 {
		if id, ok := c.rec.claim(flightKey{origin: env.To, doc: env.Doc}); ok {
			c.mu.Lock()
			c.pending[env.ReqID] = pendingReq{id: id, start: now.UnixNano()}
			c.mu.Unlock()
		}
	}
	return now
}

func (c *tapConn) after(t0 time.Time) {
	if !t0.IsZero() {
		c.rec.noteSend(time.Since(t0))
	}
}

func (c *tapConn) Send(env *netproto.Envelope) error {
	t0 := c.before(env)
	err := c.inner.Send(env)
	c.after(t0)
	return err
}

func (c *tapConn) Recv() (*netproto.Envelope, error) {
	env, err := c.inner.Recv()
	if err != nil || env.Kind != netproto.TypeResponse {
		return env, err
	}
	c.mu.Lock()
	p, ok := c.pending[env.ReqID]
	if ok {
		delete(c.pending, env.ReqID)
	}
	c.mu.Unlock()
	if ok && c.rec.on.Load() {
		c.rec.addSpan(span{ID: p.id, Layer: "transport", Parent: "gateway", Start: p.start, End: time.Now().UnixNano()})
	}
	return env, nil
}

func (c *tapConn) Close() error { return c.inner.Close() }

type tapBatchConn struct {
	*tapConn
	batch transport.BatchConn
}

func (c *tapBatchConn) SendBuffered(env *netproto.Envelope) error {
	t0 := c.before(env)
	err := c.batch.SendBuffered(env)
	c.after(t0)
	return err
}

func (c *tapBatchConn) Flush() error {
	t0 := c.flushStart()
	err := c.batch.Flush()
	c.after(t0)
	return err
}

func (c *tapConn) flushStart() time.Time {
	if !c.rec.on.Load() {
		return time.Time{}
	}
	c.rec.flushes.Add(1)
	return time.Now()
}

type tapLaneConn struct {
	tapBatchConn
	lanes transport.LaneConn

	laneMu sync.Mutex
	tapped map[int]*tapLane
}

// Lane returns the same tapped lane for the same index, as LaneConn
// requires: the server deduplicates dirty lanes by identity.
func (c *tapLaneConn) Lane(i int) transport.BatchLane {
	c.laneMu.Lock()
	defer c.laneMu.Unlock()
	if l, ok := c.tapped[i]; ok {
		return l
	}
	if c.tapped == nil {
		c.tapped = make(map[int]*tapLane)
	}
	l := &tapLane{conn: c.tapConn, inner: c.lanes.Lane(i)}
	c.tapped[i] = l
	return l
}

type tapLane struct {
	conn  *tapConn
	inner transport.BatchLane
}

func (l *tapLane) SendBuffered(env *netproto.Envelope) error {
	t0 := l.conn.before(env)
	err := l.inner.SendBuffered(env)
	l.conn.after(t0)
	return err
}

func (l *tapLane) Flush() error {
	t0 := l.conn.flushStart()
	err := l.inner.Flush()
	l.conn.after(t0)
	return err
}

var (
	_ transport.Network      = (*tapNetwork)(nil)
	_ transport.SourceDialer = (*tapNetwork)(nil)
	_ transport.LaneConn     = (*tapLaneConn)(nil)
	_ transport.BatchConn    = (*tapBatchConn)(nil)
)
