package main

// The driver side: starting and stopping the service process, and
// replaying an open-loop schedule over a fixed set of keep-alive HTTP
// connections. Every request is timed from its scheduled send time, so a
// stall shows up in the latency of every request due behind it.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
	"unsafe"

	"webwave/internal/gateway"
)

const (
	conns      = 2 // keep-alive connections: the host's core count
	reqTimeout = 2 * time.Second
)

// serviceCPUs are the CPUs the service runs on (none = unpinned); see
// cpus.go.
var serviceCPUs []int

// service is a running service process.
type service struct {
	cmd   *exec.Cmd
	stdin io.WriteCloser
	addr  string
	setup time.Duration // process start until ready
	newNs int64         // cluster.New inside the service
}

// startService launches the service process and waits for its ready line.
func startService(w workload, traced bool) (*service, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	tr := "0"
	if traced {
		tr = "1"
	}
	cmd := exec.Command(exe, "serve", "--workload", w.name, "--trace", tr, "--cpus", formatCPUs(serviceCPUs))
	cmd.Stderr = os.Stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	s := &service{cmd: cmd, stdin: stdin}
	line := make(chan string, 1)
	go func() {
		l, _ := bufio.NewReader(stdout).ReadString('\n')
		line <- l
		_, _ = io.Copy(io.Discard, stdout)
	}()
	select {
	case l := <-line:
		s.setup = time.Since(t0)
		f := strings.Fields(l)
		if len(f) != 3 || f[0] != "ready" {
			s.stop()
			return nil, fmt.Errorf("service: unexpected ready line %q", l)
		}
		s.addr = f[1]
		s.newNs, _ = strconv.ParseInt(f[2], 10, 64)
		return s, nil
	case <-time.After(30 * time.Second):
		s.stop()
		return nil, errors.New("service: not ready after 30s")
	}
}

// stop closes the service's stdin and waits for it to exit, killing it if
// it does not within a few seconds.
func (s *service) stop() {
	s.stdin.Close()
	done := make(chan struct{})
	go func() {
		_ = s.cmd.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		_ = s.cmd.Process.Kill()
		<-done
	}
}

// usage returns the service process's CPU time so far and its peak RSS,
// as the service reads them from getrusage.
func (s *service) usage() (procUsage, error) {
	var u procUsage
	err := s.getJSON("/bench/usage", &u)
	return u, err
}

func (s *service) getJSON(path string, v any) error {
	resp, err := http.Get("http://" + s.addr + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		msg, _ := io.ReadAll(resp.Body)
		return fmt.Errorf("%s: %s: %s", path, resp.Status, bytes.TrimSpace(msg))
	}
	if v == nil {
		return nil
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// ---------------------------------------------------------------------------
// Read-my-writes state.

// writes is the single writer's knowledge of every document version: the
// latest acknowledged write per doc, the write in flight, and each
// session's floors. PUTs are serialized, so the version the cluster assigns
// is always the acknowledged one plus one.
type writes struct {
	putMu sync.Mutex // held across a whole PUT

	mu       sync.Mutex
	acked    map[int]uint64
	inflight map[int]uint64
	floors   []map[int]uint64 // per session
}

func newWrites(sessions int) *writes {
	wr := &writes{acked: map[int]uint64{}, inflight: map[int]uint64{}}
	for i := 0; i < sessions; i++ {
		wr.floors = append(wr.floors, map[int]uint64{})
	}
	return wr
}

// ---------------------------------------------------------------------------
// The open-loop runner.

// result is one request's outcome.
type result struct {
	due, sent, done time.Time
	put, ok         bool
	sessionRead     bool // a GET that presented a floor for its doc
	writtenDoc      bool // a GET of a doc with an acknowledged write at send
	stale           bool // ... answered below that write
	rmw             bool // a session read answered below its floor
	mismatch        bool // wrong body or unknown version
	servedBy, hops  int
	leaf            int    // entry node
	id              uint64 // request id, sent as idHeader in traced runs
	err             string
}

// window is what one schedule produced.
type window struct {
	entries    []entry
	results    []result
	sent       int
	backlogMax int
	firstID    uint64 // entry i carries request id firstID+i
}

func (wn *window) unsent() int { return len(wn.entries) - wn.sent }

// done returns the results of the requests that were sent.
func (wn *window) done() []result {
	out := make([]result, 0, wn.sent)
	for _, r := range wn.results {
		if !r.sent.IsZero() {
			out = append(out, r)
		}
	}
	return out
}

// driver owns the connections to one service.
type driver struct {
	w       workload
	wr      *writes
	traced  bool
	clients [conns]*client
	pacers  [conns]*pacer
	nextID  atomic.Uint64
}

func newDriver(w workload, addr string, traced bool) (*driver, error) {
	d := &driver{w: w, wr: newWrites(w.sessions), traced: traced}
	for k := range d.clients {
		d.clients[k] = &client{addr: addr}
		p, err := newPacer()
		if err != nil {
			d.close()
			return nil, err
		}
		d.pacers[k] = p
	}
	return d, nil
}

func (d *driver) close() {
	for k, c := range d.clients {
		c.drop()
		if d.pacers[k] != nil {
			d.pacers[k].f.Close()
		}
	}
}

// client is one keep-alive connection, owned by one worker.
type client struct {
	addr    string
	conn    net.Conn
	br      *bufio.Reader
	req     []byte
	bodyBuf []byte
	want    []byte
}

func (c *client) dial() error {
	if c.conn != nil {
		return nil
	}
	conn, err := net.Dial("tcp", c.addr)
	if err != nil {
		return err
	}
	c.conn, c.br = conn, bufio.NewReaderSize(conn, 16<<10)
	return nil
}

func (c *client) drop() {
	if c.conn != nil {
		c.conn.Close()
		c.conn = nil
	}
}

// run replays entries, starting now, over the driver's connections and
// returns when every sent request has finished. Entries still unsent when
// span has elapsed stay unsent: they are the final backlog.
func (d *driver) run(entries []entry, span time.Duration) *window {
	wn := &window{entries: entries, results: make([]result, len(entries))}
	wn.firstID = d.nextID.Add(uint64(len(entries))) - uint64(len(entries))
	start := time.Now()
	end := start.Add(span)
	var next atomic.Int64
	var sent atomic.Int64
	backlog := make([]int, conns)
	var wg sync.WaitGroup
	for k := 0; k < conns; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			c, pc := d.clients[k], d.pacers[k]
			for {
				i := int(next.Add(1) - 1)
				if i >= len(entries) {
					return
				}
				due := start.Add(entries[i].at)
				pc.sleepUntil(due)
				now := time.Now()
				if !now.Before(end) {
					return
				}
				// Backlog: requests already due but not yet sent.
				dueNow := sort.Search(len(entries), func(j int) bool { return entries[j].at > now.Sub(start) })
				if b := dueNow - int(sent.Add(1)); b > backlog[k] {
					backlog[k] = b
				}
				wn.results[i] = d.do(c, entries[i], due, wn.firstID+uint64(i))
			}
		}(k)
	}
	wg.Wait()
	wn.sent = int(sent.Load())
	for _, b := range backlog {
		wn.backlogMax = max(wn.backlogMax, b)
	}
	return wn
}

// do sends one request and checks its response.
func (d *driver) do(c *client, e entry, due time.Time, id uint64) result {
	r := result{due: due, put: e.put, servedBy: -1, leaf: e.leaf, id: id}
	doc := docID(e.doc)
	var ver, floor, latest uint64
	if e.put {
		d.wr.putMu.Lock()
		defer d.wr.putMu.Unlock()
		d.wr.mu.Lock()
		ver = d.wr.acked[e.doc] + 1
		d.wr.inflight[e.doc] = ver
		d.wr.mu.Unlock()
	} else if d.w.sessions > 0 {
		d.wr.mu.Lock()
		floor = d.wr.floors[e.session][e.doc]
		latest = d.wr.acked[e.doc]
		d.wr.mu.Unlock()
	}

	c.req = c.req[:0]
	if e.put {
		c.req = fmt.Appendf(c.req, "PUT /docs/%s HTTP/1.1\r\nHost: bench\r\n%s: %d\r\nContent-Length: %d\r\n", doc, enterHeader, e.leaf, d.w.docBytes)
	} else {
		c.req = fmt.Appendf(c.req, "GET /docs/%s HTTP/1.1\r\nHost: bench\r\n%s: %d\r\n", doc, enterHeader, e.leaf)
		if floor > 0 {
			c.req = fmt.Appendf(c.req, "%s: %s=%d\r\n", gateway.SessionHeader, doc, floor)
		}
	}
	if d.traced {
		c.req = fmt.Appendf(c.req, "%s: %d\r\n", idHeader, id)
	}
	c.req = append(c.req, "\r\n"...)
	if e.put {
		c.req = append(c.req, body(doc, ver, d.w.docBytes)...)
	}

	r.sent = time.Now()
	status, hdr, n, err := c.roundTrip()
	r.done = time.Now()
	r.sessionRead, r.writtenDoc = floor > 0, latest > 0
	if err != nil {
		r.err = err.Error()
		return r
	}
	if e.put {
		if status != http.StatusNoContent {
			r.err = fmt.Sprintf("PUT status %d", status)
			return r
		}
		if got, _ := strconv.ParseUint(hdr.Get(gateway.DocVersionHeader), 10, 64); got != ver {
			r.mismatch, r.err = true, fmt.Sprintf("PUT %s assigned v%s, want v%d", doc, hdr.Get(gateway.DocVersionHeader), ver)
			return r
		}
		d.wr.mu.Lock()
		d.wr.acked[e.doc] = ver
		if d.w.sessions > 0 {
			d.wr.floors[e.session][e.doc] = ver
		}
		d.wr.mu.Unlock()
		r.ok = true
		return r
	}
	if status != http.StatusOK {
		r.err = fmt.Sprintf("GET status %d", status)
		return r
	}
	got, err1 := strconv.ParseUint(hdr.Get(gateway.DocVersionHeader), 10, 64)
	sb, err2 := strconv.Atoi(hdr.Get("X-WebWave-Served-By"))
	hops, err3 := strconv.Atoi(hdr.Get("X-WebWave-Hops"))
	if err1 != nil || err2 != nil || err3 != nil {
		r.err = "GET: missing or malformed WebWave headers"
		return r
	}
	r.servedBy, r.hops = sb, hops
	known := uint64(0)
	if d.w.putShare > 0 {
		d.wr.mu.Lock()
		known = max(d.wr.acked[e.doc], d.wr.inflight[e.doc])
		d.wr.mu.Unlock()
	}
	if got > known {
		r.mismatch, r.err = true, fmt.Sprintf("GET %s returned unwritten v%d", doc, got)
		return r
	}
	if cap(c.want) < d.w.docBytes {
		c.want = make([]byte, d.w.docBytes)
	}
	c.want = c.want[:d.w.docBytes]
	fillBody(c.want, doc, got)
	if !bytes.Equal(c.bodyBuf[:n], c.want) {
		r.mismatch, r.err = true, fmt.Sprintf("GET %s v%d: body mismatch (got %q...)", doc, got, firstLine(c.bodyBuf[:n]))
		return r
	}
	if got < floor {
		r.rmw, r.err = true, fmt.Sprintf("GET %s: v%d below session floor v%d", doc, got, floor)
		return r
	}
	r.stale = got < latest
	r.ok = true
	return r
}

// firstLine is b up to its first newline, at most 40 bytes: the
// "doc vN" header line of a body from fillBody.
func firstLine(b []byte) []byte {
	if i := bytes.IndexByte(b, '\n'); i >= 0 {
		b = b[:i]
	}
	return b[:min(len(b), 40)]
}

// roundTrip writes c.req and reads one response, its body into c.bodyBuf.
func (c *client) roundTrip() (status int, hdr http.Header, n int, err error) {
	if err := c.dial(); err != nil {
		return 0, nil, 0, err
	}
	_ = c.conn.SetDeadline(time.Now().Add(reqTimeout))
	if _, err := c.conn.Write(c.req); err != nil {
		c.drop()
		return 0, nil, 0, err
	}
	resp, err := http.ReadResponse(c.br, nil)
	if err != nil {
		c.drop()
		return 0, nil, 0, err
	}
	defer resp.Body.Close()
	if resp.ContentLength > 0 {
		if int64(cap(c.bodyBuf)) < resp.ContentLength {
			c.bodyBuf = make([]byte, resp.ContentLength)
		}
		n, err = io.ReadFull(resp.Body, c.bodyBuf[:resp.ContentLength])
	} else {
		var b []byte
		b, err = io.ReadAll(resp.Body)
		c.bodyBuf = append(c.bodyBuf[:0], b...)
		n = len(b)
	}
	if err != nil {
		c.drop()
		return 0, nil, 0, err
	}
	return resp.StatusCode, resp.Header, n, nil
}

// ---------------------------------------------------------------------------
// Sleeping to the schedule.

// pacer sleeps a sender until its next due time on a timerfd that the
// runtime's network poller waits on. The waiting goroutine holds no P and
// the poller wakes within microseconds of the deadline. The runtime timer
// behind time.Sleep woke 0.27-0.47 ms late at p50. A thread locked in
// nanosleep wakes on time but keeps its P in the syscall: with the driver
// pinned to one CPU (GOMAXPROCS=1), the other sender's response then waited
// for it, and under host steal the driver fell milliseconds behind.
type pacer struct {
	f  *os.File
	fd uintptr // f's descriptor, kept because f.Fd() would make it blocking
}

func newPacer() (*pacer, error) {
	const clockMonotonic = 1
	fd, _, e := syscall.RawSyscall(syscall.SYS_TIMERFD_CREATE, clockMonotonic, syscall.O_NONBLOCK|syscall.O_CLOEXEC, 0)
	if e != 0 {
		return nil, fmt.Errorf("timerfd_create: %w", e)
	}
	return &pacer{f: os.NewFile(fd, "timerfd"), fd: fd}, nil
}

// sleepUntil returns at t, or at once if t has passed.
func (p *pacer) sleepUntil(t time.Time) {
	d := time.Until(t)
	if d <= 0 {
		return
	}
	// struct itimerspec: it_interval (zero: one shot), then it_value.
	spec := [4]int64{0, 0, int64(d / time.Second), int64(d % time.Second)}
	_, _, e := syscall.RawSyscall6(syscall.SYS_TIMERFD_SETTIME, p.fd, 0, uintptr(unsafe.Pointer(&spec)), 0, 0, 0)
	if e != 0 {
		time.Sleep(d) // cannot happen with a valid fd and spec
		return
	}
	var expirations [8]byte
	_, _ = p.f.Read(expirations[:])
}
