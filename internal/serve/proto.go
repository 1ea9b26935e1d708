// TCP front end and client of the wire protocol.
//
// Every connection opens with the 5-byte LTW1 hello and then speaks the
// binary frames of wire.go: a 4-byte big-endian body length followed by
// one body, with bodies capped at maxFrame. Requests carry a
// client-chosen id echoed in the response, so a client may pipeline any
// number of requests over one connection; the server answers each as its
// operation completes, not necessarily in order. A connection that opens
// with anything else is refused: one protocol-fatal error frame (id −1)
// naming the required hello, then close.
//
// The front end is the ShardSet router (see shard.go), at any M. The key
// field names the served object: a request carries one iff the
// deployment has M > 1 shards, and the router hashes it onto a shard
// cluster. A keyed request to an M = 1 deployment and an unkeyed one to
// M > 1 are both refused, so a client can never silently talk to the
// wrong topology. Responses echo the shard index that served them (zero
// at M = 1).
//
// A frame body that would exceed maxFrame — in either direction — is
// answered with a typed protocol error rather than silently dropped: an
// oversized response turns into an error response carrying the request's
// id (the connection stays usable), while an oversized request poisons
// the byte stream and is answered with a protocol-fatal error frame
// (id −1) before the connection closes.
//
// Arguments and return values cover the history interchange kinds of
// internal/histio (integers, strings, booleans, null, {p,c} edges and
// {k,v} pairs); the wire value encoding mirrors histio's JSON encoding
// one-to-one, and the tests hold it to that reference.
package serve

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"

	"lintime/internal/adt"
	"lintime/internal/classify"
	"lintime/internal/obs"
	"lintime/internal/rtnet"
	"lintime/internal/simtime"
	"lintime/internal/spec"
)

// maxFrame bounds a frame body; larger announcements are protocol errors.
const maxFrame = 1 << 20

// CodecBinary names the one wire protocol for DialCodec.
const CodecBinary = "binary"

// frameSizeError is the typed protocol violation for a frame body beyond
// maxFrame, in either direction; its text is what the peer receives in
// the error frame.
type frameSizeError struct{ n int }

func (e *frameSizeError) Error() string {
	return fmt.Sprintf("serve: protocol: frame of %d bytes exceeds the %d-byte limit", e.n, maxFrame)
}

// request is one decoded protocol request.
type request struct {
	id  int64
	key string // served object; empty iff the deployment has one shard
	op  string
	arg spec.Value
	// trace is the client-side span id carried in the wire trace context;
	// 0 (the wire encoding's absent value) means the request is untraced.
	trace int64
}

// traceParent maps the wire trace-context value onto the substrate's
// parent-span convention: 0 on the wire means "no trace" (-1 inside).
func traceParent(trace int64) int64 {
	if trace == 0 {
		return -1
	}
	return trace
}

// response is one decoded protocol response. A non-empty err carries a
// failure (the other result fields are unset); id is always echoed.
type response struct {
	id      int64
	ret     spec.Value
	class   classify.Class
	shard   int
	invoke  int64
	respond int64
	err     string
}

func errResponse(id int64, msg string) response { return response{id: id, err: msg} }

// frontend is the router's TCP bookkeeping: its listeners, its open
// connections and the WaitGroup the graceful teardown waits on. The
// router's Serve, handleConn and serveBinaryConn drive it.
//
// Teardown protocol: each connection handler owns a private request
// WaitGroup, so every Add happens in the reader goroutine before the
// reader exits — never racing a Wait — and the handler only closes its
// connection after all pending responses are written. A drain therefore
// shuts reads down (CloseRead where the transport supports it), lets the
// readers run dry, and waits on connWG; nothing in flight is dropped.
type frontend struct {
	opNames    []string     // negotiated op table; opcode = index
	connsTotal *obs.Counter // accepted connections

	mu        sync.Mutex
	listeners []net.Listener
	conns     map[net.Conn]struct{}
	connWG    sync.WaitGroup
}

// Serve accepts router connections on ln until the listener is closed (by
// a drain, or externally). It returns nil on a drain-initiated close.
func (ss *ShardSet) Serve(ln net.Listener) error {
	f := &ss.fe
	f.mu.Lock()
	f.listeners = append(f.listeners, ln)
	f.mu.Unlock()
	for {
		conn, err := ln.Accept()
		if err != nil {
			if ss.draining.Load() {
				return nil
			}
			return err
		}
		f.mu.Lock()
		f.conns[conn] = struct{}{}
		f.mu.Unlock()
		f.connWG.Add(1)
		go ss.handleConn(conn)
	}
}

func (ss *ShardSet) handleConn(conn net.Conn) {
	f := &ss.fe
	defer f.connWG.Done()
	f.connsTotal.Inc()
	var reqs sync.WaitGroup
	var wmu sync.Mutex // serializes response frames from concurrent requests
	ss.serveBinaryConn(conn, bufio.NewReaderSize(conn, 16<<10), &reqs, &wmu)
	// Flush every accepted request's response before the connection dies:
	// requests that raced a drain get ErrDraining responses and finish
	// quickly, so this converges as soon as reads stop.
	reqs.Wait()
	conn.Close()
	f.mu.Lock()
	delete(f.conns, conn)
	f.mu.Unlock()
}

// serveBinaryConn runs one connection: consume the client hello, answer
// with the op table, then dispatch request frames. A malformed request
// body is answered per-request (length framing keeps the stream in
// sync), but a wrong hello — another protocol, an unknown version — or an
// oversized announcement is protocol-fatal: error frame with id −1, then
// close.
func (ss *ShardSet) serveBinaryConn(conn net.Conn, br *bufio.Reader, reqs *sync.WaitGroup, wmu *sync.Mutex) {
	refuse := func(msg string) {
		wmu.Lock()
		_ = writeBinaryError(conn, errProtoID, msg)
		wmu.Unlock()
	}
	// The magic is judged on its own four bytes, so a peer that sent only
	// another protocol's header is refused rather than waited on.
	var magic [len(wireMagic)]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return
	}
	if string(magic[:]) != wireMagic {
		refuse(fmt.Sprintf("serve: protocol: connection must open with the %s hello (version %d)", wireMagic, wireVersion))
		return
	}
	if v, err := br.ReadByte(); err != nil {
		return
	} else if v != wireVersion {
		refuse(fmt.Sprintf("serve: binary protocol version %d not supported (have %d)", v, wireVersion))
		return
	}
	bp := frameOut()
	*bp = appendHello(*bp, ss.fe.opNames)
	wmu.Lock()
	err := finishFrame(conn, *bp)
	wmu.Unlock()
	frameIn(bp)
	if err != nil {
		return
	}
	var hdr [4]byte
	var body []byte // reused: parseRequest copies what outlives the frame
	for {
		if _, err := io.ReadFull(br, hdr[:]); err != nil {
			return
		}
		n := binary.BigEndian.Uint32(hdr[:])
		if n > maxFrame {
			refuse((&frameSizeError{n: int(n)}).Error())
			return
		}
		if uint32(cap(body)) < n {
			body = make([]byte, n)
		}
		body = body[:n]
		if _, err := io.ReadFull(br, body); err != nil {
			return
		}
		req, err := parseRequest(body, ss.fe.opNames)
		if err != nil {
			wmu.Lock()
			werr := writeBinaryError(conn, req.id, err.Error())
			wmu.Unlock()
			if werr != nil {
				return
			}
			continue
		}
		reqs.Add(1)
		go func(req request) {
			defer reqs.Done()
			resp := ss.handleRequest(req)
			wmu.Lock()
			defer wmu.Unlock()
			_ = writeBinaryResponse(conn, resp)
		}(req)
	}
}

// writeBinaryResponse encodes and writes one binary response frame from a
// pooled buffer. Encoding failures and oversized bodies degrade to typed
// error frames carrying the same id.
func writeBinaryResponse(w io.Writer, resp response) error {
	bp := frameOut()
	defer frameIn(bp)
	b, err := appendResponse(*bp, resp)
	if err != nil {
		b = appendErrorFrame((*bp)[:4], resp.id, err.Error())
	} else if len(b)-4 > maxFrame {
		b = appendErrorFrame((*bp)[:4], resp.id, (&frameSizeError{n: len(b) - 4}).Error())
	}
	*bp = b
	return finishFrame(w, b)
}

func writeBinaryError(w io.Writer, id int64, msg string) error {
	bp := frameOut()
	defer frameIn(bp)
	*bp = appendErrorFrame(*bp, id, msg)
	return finishFrame(w, *bp)
}

func (f *frontend) closeListeners() {
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, ln := range f.listeners {
		ln.Close()
	}
	f.listeners = nil
}

// shutdownConns ends every open connection gracefully: reads shut down
// first (no new requests), the per-connection handlers flush their
// pending responses and close, and the call returns once all handler
// goroutines are gone.
func (f *frontend) shutdownConns() {
	f.mu.Lock()
	conns := make([]net.Conn, 0, len(f.conns))
	for conn := range f.conns {
		conns = append(conns, conn)
	}
	f.mu.Unlock()
	for _, conn := range conns {
		if cr, ok := conn.(interface{ CloseRead() error }); ok {
			cr.CloseRead()
		} else {
			conn.Close()
		}
	}
	f.connWG.Wait()
}

// handleRequest is the router's wire dispatcher: the front end hands it
// decoded requests.
func (ss *ShardSet) handleRequest(req request) response {
	r, shard, err := ss.route(req.key, req.op, req.arg, traceParent(req.trace))
	if err != nil {
		return errResponse(req.id, err.Error())
	}
	return response{id: req.id, ret: r.Ret, class: r.Class, shard: shard,
		invoke: int64(r.Invoke), respond: int64(r.Respond)}
}

// clientResp pairs a decoded response with any local decode failure, so
// call() can distinguish a server-reported error from a client-side one.
type clientResp struct {
	resp      response
	decodeErr error
}

// Client is a TCP client for the serving protocol. Safe for concurrent
// use: calls are pipelined over the single connection and matched to
// responses by id.
type Client struct {
	conn    net.Conn
	br      *bufio.Reader
	opCodes map[string]uint64 // negotiated op table
	traced  atomic.Bool
	wmu     sync.Mutex
	nextID  atomic.Int64

	mu      sync.Mutex
	pending map[int64]chan clientResp
	readErr error
	closed  chan struct{}
}

// Dial connects to a serving-layer address and exchanges hellos.
func Dial(addr string) (*Client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	c := &Client{
		conn:    conn,
		br:      bufio.NewReader(conn),
		pending: map[int64]chan clientResp{},
		closed:  make(chan struct{}),
	}
	if err := c.helloBinary(); err != nil {
		conn.Close()
		return nil, err
	}
	go c.readLoopBinary()
	return c, nil
}

// DialCodec is Dial under the name the frozen bench/ module calls it by:
// there is one protocol, so any codec but CodecBinary is refused. Goes
// with ROADMAP item 9.
func DialCodec(addr, codec string) (*Client, error) {
	if codec != CodecBinary {
		return nil, fmt.Errorf("serve: unknown codec %q (have %s)", codec, CodecBinary)
	}
	return Dial(addr)
}

// SetTraced toggles the client's trace context: when on, every request
// carries the request id as its client-side span, so the server records
// it as the operation's causal parent (an *obs.Collector on the server
// then ties its whole replica-level tree back to this client call). Off
// by default; untraced requests are byte-identical to the pre-tracing
// protocol.
func (c *Client) SetTraced(on bool) { c.traced.Store(on) }

// helloBinary sends the magic + version and consumes the server's hello
// frame carrying the negotiated op table.
func (c *Client) helloBinary() error {
	if _, err := c.conn.Write(append([]byte(wireMagic), wireVersion)); err != nil {
		return err
	}
	var hdr [4]byte
	if _, err := io.ReadFull(c.br, hdr[:]); err != nil {
		return fmt.Errorf("serve: binary hello: %w", err)
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n > maxFrame {
		return &frameSizeError{n: int(n)}
	}
	body := make([]byte, n)
	if _, err := io.ReadFull(c.br, body); err != nil {
		return fmt.Errorf("serve: binary hello: %w", err)
	}
	if len(body) > 0 && body[0] == frameError {
		// The server refused the handshake (e.g. a version mismatch).
		resp, err := parseResponse(body)
		if err != nil {
			return err
		}
		return fmt.Errorf("serve: remote: %s", resp.err)
	}
	names, _, err := parseHello(body)
	if err != nil {
		return err
	}
	c.opCodes = make(map[string]uint64, len(names))
	for i, name := range names {
		c.opCodes[name] = uint64(i)
	}
	return nil
}

// fail records the terminal read error and unblocks every pending call.
func (c *Client) fail(err error) {
	c.mu.Lock()
	c.readErr = err
	c.mu.Unlock()
	close(c.closed)
}

func (c *Client) deliver(id int64, cr clientResp) {
	c.mu.Lock()
	ch := c.pending[id]
	delete(c.pending, id)
	c.mu.Unlock()
	if ch != nil {
		ch <- cr
	}
}

func (c *Client) readLoopBinary() {
	var body []byte // reused: parseResponse copies what outlives the frame
	for {
		var hdr [4]byte
		if _, err := io.ReadFull(c.br, hdr[:]); err != nil {
			c.fail(err)
			return
		}
		n := binary.BigEndian.Uint32(hdr[:])
		if n > maxFrame {
			c.fail(&frameSizeError{n: int(n)})
			return
		}
		if uint32(cap(body)) < n {
			body = make([]byte, n)
		}
		body = body[:n]
		if _, err := io.ReadFull(c.br, body); err != nil {
			c.fail(err)
			return
		}
		resp, err := parseResponse(body)
		if err != nil {
			c.fail(err)
			return
		}
		if resp.id == errProtoID && resp.err != "" {
			c.fail(fmt.Errorf("serve: remote: %s", resp.err))
			return
		}
		c.deliver(resp.id, clientResp{resp: resp})
	}
}

// Call executes one operation remotely and blocks until its response.
// The returned Response carries the server-side invoke/respond instants
// in virtual ticks, so latencies are comparable to the in-process path.
func (c *Client) Call(op string, arg any) (rtnet.Response, error) {
	return c.call("", op, arg)
}

// CallKey executes one operation against the named object of a sharded
// deployment. The response's Arg carries the keyed argument (see
// adt.KeyArg), so client-side logs group per shard and per object
// exactly like server-side traces.
func (c *Client) CallKey(key, op string, arg any) (rtnet.Response, error) {
	if key == "" {
		return rtnet.Response{}, fmt.Errorf("serve: CallKey needs a non-empty key")
	}
	return c.call(key, op, arg)
}

func (c *Client) call(key, op string, arg any) (rtnet.Response, error) {
	id := c.nextID.Add(1)
	// The request id doubles as the client-side span when tracing is on:
	// ids are positive and connection-unique, and 0 stays the wire's
	// "untraced" value.
	var trace int64
	if c.traced.Load() {
		trace = id
	}
	ch := make(chan clientResp, 1)
	c.mu.Lock()
	c.pending[id] = ch
	c.mu.Unlock()
	if err := c.writeBinaryRequest(id, key, op, arg, trace); err != nil {
		c.mu.Lock()
		delete(c.pending, id)
		c.mu.Unlock()
		return rtnet.Response{}, err
	}
	var cr clientResp
	select {
	case cr = <-ch:
	case <-c.closed:
		// The reader may have dispatched our response just before dying.
		select {
		case cr = <-ch:
		default:
			c.mu.Lock()
			readErr := c.readErr
			delete(c.pending, id)
			c.mu.Unlock()
			return rtnet.Response{}, fmt.Errorf("serve: connection lost: %w", readErr)
		}
	}
	if cr.decodeErr != nil {
		return rtnet.Response{}, cr.decodeErr
	}
	if cr.resp.err != "" {
		return rtnet.Response{}, fmt.Errorf("serve: remote: %s", cr.resp.err)
	}
	recArg := any(arg)
	if key != "" {
		if ka, kerr := adt.KeyArg(key, arg); kerr == nil {
			recArg = ka
		}
	}
	return rtnet.Response{
		Op: op, Arg: recArg, Ret: cr.resp.ret,
		Class:   cr.resp.class,
		Invoke:  simtime.Time(cr.resp.invoke),
		Respond: simtime.Time(cr.resp.respond),
	}, nil
}

// writeBinaryRequest encodes and writes one request frame from a pooled
// buffer. Unknown operations fail locally: the negotiated table is the
// server's own op list, so a miss cannot succeed remotely either.
func (c *Client) writeBinaryRequest(id int64, key, op string, arg any, trace int64) error {
	opcode, ok := c.opCodes[op]
	if !ok {
		return fmt.Errorf("serve: remote type has no operation %q in the negotiated table", op)
	}
	bp := frameOut()
	defer frameIn(bp)
	b, err := appendRequest(*bp, id, opcode, key, arg, trace)
	if err != nil {
		return err
	}
	*bp = b
	if len(b)-4 > maxFrame {
		return &frameSizeError{n: len(b) - 4}
	}
	c.wmu.Lock()
	defer c.wmu.Unlock()
	return finishFrame(c.conn, b)
}

// Close tears the connection down; in-flight Calls fail.
func (c *Client) Close() error { return c.conn.Close() }
