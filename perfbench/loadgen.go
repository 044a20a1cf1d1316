package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"time"

	"repro/internal/randx"
	"repro/internal/workload"
)

// streamReq is one generated request: when it is due (virtual time since
// the stream's start) and the body the program receives.
type streamReq struct {
	at   float64
	body []byte
}

// paperStream generates the paper's bursty fast/slow/fast arrival stream
// from the workload seed: windows consecutive 1000-task windows, each with
// the arrival times and task types workload.GenerateTrial draws. Each
// request carries only the task type, like a real client; the server
// derives the deadline.
func paperStream(seed uint64, m *workload.Model, label string, windows int) ([]streamReq, error) {
	root := randx.NewStream(seed).Child(label)
	var out []streamReq
	offset := 0.0
	for w := 0; w < windows; w++ {
		tr, err := workload.GenerateTrial(root.ChildN("window", w), m)
		if err != nil {
			return nil, err
		}
		t0 := tr.Tasks[0].Arrival
		for _, t := range tr.Tasks {
			out = append(out, streamReq{at: offset + t.Arrival - t0, body: []byte(fmt.Sprintf(`{"type":%d}`, t.Type))})
		}
		// The next window starts one first-arrival gap after this one ends.
		offset = out[len(out)-1].at + t0
	}
	return out, nil
}

// reqOutcome is the client-side record of one request. Times are offsets
// from the replay's start.
type reqOutcome struct {
	due, dispatched, done time.Duration
	status                int
	err                   error
	taskID                int
	arrival               float64
}

// latency is measured from when the request was due, so a stall that
// delays later sends counts against them (no coordinated omission).
func (o *reqOutcome) latency() time.Duration { return o.done - o.due }

// sendLag is how late the generator handed the request to a connection.
func (o *reqOutcome) sendLag() time.Duration { return o.dispatched - o.due }

// answered reports whether the request got a decision: mapped (200) or
// shed by the admission pipeline (422). Anything else — refused, timed
// out, a transport error — is a failed request.
func (o *reqOutcome) answered() bool {
	return o.err == nil && (o.status == http.StatusOK || o.status == http.StatusUnprocessableEntity)
}

// replayOpts configures one open-loop replay.
type replayOpts struct {
	addr  string  // host:port of the API
	scale float64 // virtual time units per wall second
	conns int
	// spanID, when set, tags request i with a client span id the traced
	// handler wrapper joins on.
	spanID func(i int) int64
	// beforeSend, when set, runs on the connection's goroutine just before
	// request i is written.
	beforeSend func(i int)
}

// replay sends reqs open-loop: request i is due at reqs[i].at/scale wall
// seconds after the start, whether or not earlier requests have been
// answered. A generator goroutine hands due requests to conns workers,
// each holding one keep-alive connection dialled before the start.
func replay(reqs []streamReq, o replayOpts) ([]reqOutcome, error) {
	sl, err := newSleeper()
	if err != nil {
		return nil, err
	}
	defer sl.close()
	workers := make([]*httpConn, o.conns)
	for i := range workers {
		c, err := dialHTTP(o.addr)
		if err != nil {
			for _, w := range workers[:i] {
				w.close()
			}
			return nil, err
		}
		workers[i] = c
	}
	out := make([]reqOutcome, len(reqs))
	// Sized to the number of sends, so the generator never blocks on a
	// busy connection and keeps its schedule.
	ready := make(chan int, len(reqs))
	var wg sync.WaitGroup
	start := time.Now()
	for _, c := range workers {
		wg.Add(1)
		go func(c *httpConn) {
			defer wg.Done()
			defer c.close()
			for i := range ready {
				var id int64
				if o.spanID != nil {
					id = o.spanID(i)
				}
				if o.beforeSend != nil {
					o.beforeSend(i)
				}
				c.post(reqs[i].body, id, &out[i])
				out[i].done = time.Since(start)
			}
		}(c)
	}
	var genErr error
	for i := range reqs {
		due := time.Duration(reqs[i].at / o.scale * float64(time.Second))
		out[i].due = due
		for d := due - time.Since(start); d > 0 && genErr == nil; d = due - time.Since(start) {
			genErr = sl.sleep(min(d, maxNap))
		}
		out[i].dispatched = time.Since(start)
		ready <- i
	}
	close(ready)
	wg.Wait()
	return out, genErr
}

// httpConn is a minimal HTTP/1.1 client on one keep-alive connection. It
// writes each request and reads the response on the calling goroutine, so
// the client adds no goroutine hand-offs of its own to the latency.
type httpConn struct {
	addr string
	conn net.Conn
	br   *bufio.Reader
	buf  bytes.Buffer
}

func dialHTTP(addr string) (*httpConn, error) {
	c := &httpConn{addr: addr}
	return c, c.dial()
}

func (c *httpConn) dial() error {
	conn, err := net.Dial("tcp", c.addr)
	if err != nil {
		return err
	}
	c.conn, c.br = conn, bufio.NewReader(conn)
	return nil
}

func (c *httpConn) close() {
	if c.conn != nil {
		c.conn.Close()
		c.conn = nil
	}
}

// post sends one task submission and records the decision. After a
// transport error the connection is re-dialled for the next request.
func (c *httpConn) post(body []byte, spanID int64, out *reqOutcome) {
	if c.conn == nil {
		if out.err = c.dial(); out.err != nil {
			return
		}
	}
	c.buf.Reset()
	fmt.Fprintf(&c.buf, "POST /v1/tasks HTTP/1.1\r\nHost: %s\r\nContent-Type: application/json\r\nContent-Length: %d\r\n", c.addr, len(body))
	if spanID != 0 {
		fmt.Fprintf(&c.buf, "%s: %d\r\n", requestHeader, spanID)
	}
	c.buf.WriteString("\r\n")
	c.buf.Write(body)
	if _, err := c.conn.Write(c.buf.Bytes()); err != nil {
		out.err = err
		c.close()
		return
	}
	resp, err := http.ReadResponse(c.br, nil)
	if err != nil {
		out.err = err
		c.close()
		return
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	out.status = resp.StatusCode
	if err != nil {
		out.err = err
		c.close()
		return
	}
	if resp.StatusCode == http.StatusOK || resp.StatusCode == http.StatusUnprocessableEntity {
		var d struct {
			ID      int     `json:"id"`
			Arrival float64 `json:"arrival"`
		}
		if err := json.Unmarshal(data, &d); err != nil {
			out.err = fmt.Errorf("decode decision: %w", err)
			return
		}
		out.taskID, out.arrival = d.ID, d.Arrival
	}
}

// maxNap bounds one generator sleep. A virtual CPU that idles longer than
// the guest's halt-poll window (200 µs by default) halts, and waking it
// again costs the host's scheduling latency — milliseconds on a shared
// host — which would land on the request schedule. Napping in shorter
// steps keeps the generator's CPU polling.
const maxNap = 150 * time.Microsecond
