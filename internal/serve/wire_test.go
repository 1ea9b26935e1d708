package serve

import (
	"bufio"
	"encoding/binary"
	"io"
	"math"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"lintime/internal/adt"
	"lintime/internal/classify"
	"lintime/internal/histio"
	"lintime/internal/spec"
)

// wireValues spans the histio interchange space: every kind the JSON
// reference encoding accepts, including the boundary shapes (empty
// string, zero, negatives, multi-byte varints).
var wireValues = []spec.Value{
	nil,
	0, 1, -1, 42, -4096, 1 << 40, -(1 << 40),
	"", "hi", "key:with spaces\nand\tcontrol", strings.Repeat("x", 300),
	true, false,
	adt.Edge{P: 0, C: 0}, adt.Edge{P: 3, C: -7}, adt.Edge{P: 1 << 20, C: 2},
	adt.KV{K: "", V: 0}, adt.KV{K: "user:42", V: -99},
}

// TestWireValueRoundTrip holds the binary value codec to the JSON
// reference: every interchange value must round-trip binary → binary
// exactly, and agree with what the JSON encoding round-trips to.
func TestWireValueRoundTrip(t *testing.T) {
	for _, v := range wireValues {
		b, err := appendWireValue(nil, v)
		if err != nil {
			t.Errorf("encode %v (%T): %v", v, v, err)
			continue
		}
		r := &wireReader{b: b}
		got := r.value()
		if r.err != nil {
			t.Errorf("decode %v: %v", v, r.err)
			continue
		}
		if len(r.b) != 0 {
			t.Errorf("decode %v left %d trailing bytes", v, len(r.b))
		}
		if !spec.ValuesEqual(got, v) {
			t.Errorf("binary round-trip %v (%T) = %v (%T)", v, v, got, got)
		}
		// JSON reference agreement.
		raw, err := histio.EncodeValue(v)
		if err != nil {
			t.Errorf("JSON reference rejects %v (%T): %v", v, v, err)
			continue
		}
		jv, err := histio.DecodeValue(raw)
		if err != nil {
			t.Errorf("JSON reference cannot decode its own %s: %v", raw, err)
			continue
		}
		if !spec.ValuesEqual(got, jv) {
			t.Errorf("codecs disagree on %v: binary %v, JSON %v", v, got, jv)
		}
	}
}

func TestWireValueRejectsUnsupported(t *testing.T) {
	if _, err := appendWireValue(nil, struct{ X int }{1}); err == nil {
		t.Error("struct value should be rejected")
	}
	r := &wireReader{b: []byte{0x7f}}
	if r.value(); r.err == nil {
		t.Error("unknown tag should error")
	}
}

func TestWireRequestRoundTrip(t *testing.T) {
	opNames := []string{"enqueue", "dequeue", "peek"}
	for _, v := range wireValues {
		b, err := appendRequest(make([]byte, 4), 77, 1, "user:9", v, 0)
		if err != nil {
			t.Fatalf("appendRequest(%v): %v", v, err)
		}
		req, err := parseRequest(b[4:], opNames)
		if err != nil {
			t.Fatalf("parseRequest(%v): %v", v, err)
		}
		if req.id != 77 || req.op != "dequeue" || req.key != "user:9" || !spec.ValuesEqual(req.arg, v) {
			t.Errorf("request round-trip = %+v, want id 77 dequeue user:9 %v", req, v)
		}
	}
	// An opcode outside the table is rejected with the request's id intact
	// (so the error response can be matched to the call).
	b, _ := appendRequest(make([]byte, 4), 5, 9, "", nil, 0)
	req, err := parseRequest(b[4:], opNames)
	if err == nil || !strings.Contains(err.Error(), "negotiated table") {
		t.Errorf("out-of-table opcode: err = %v", err)
	}
	if req.id != 5 {
		t.Errorf("out-of-table opcode: id = %d, want 5", req.id)
	}
}

func TestWireResponseRoundTrip(t *testing.T) {
	in := response{id: -3, ret: adt.KV{K: "k", V: 7}, class: classify.Mixed,
		shard: 2, invoke: 812, respond: 844}
	b, err := appendResponse(make([]byte, 4), in)
	if err != nil {
		t.Fatal(err)
	}
	out, err := parseResponse(b[4:])
	if err != nil {
		t.Fatal(err)
	}
	if out.id != in.id || out.class != in.class || out.shard != in.shard ||
		out.invoke != in.invoke || out.respond != in.respond || !spec.ValuesEqual(out.ret, in.ret) {
		t.Errorf("response round-trip = %+v, want %+v", out, in)
	}

	// Error responses ride the error frame and come back as err strings.
	eb, err := appendResponse(make([]byte, 4), errResponse(9, "boom"))
	if err != nil {
		t.Fatal(err)
	}
	eout, err := parseResponse(eb[4:])
	if err != nil {
		t.Fatal(err)
	}
	if eout.id != 9 || eout.err != "boom" {
		t.Errorf("error round-trip = %+v", eout)
	}
}

func TestWireHelloRoundTrip(t *testing.T) {
	names := []string{"enqueue", "dequeue", "peek", "size"}
	b := appendHello(make([]byte, 4), names)
	got, _, err := parseHello(b[4:])
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(names) {
		t.Fatalf("hello round-trip = %v", got)
	}
	for i := range names {
		if got[i] != names[i] {
			t.Errorf("op %d = %q, want %q", i, got[i], names[i])
		}
	}
	// A count announcing more ops than the body could hold is malformed.
	bad := appendUvarint([]byte{frameHello, wireVersion}, 1<<40)
	if _, _, err := parseHello(bad); err == nil {
		t.Error("huge op count should be rejected")
	}
}

// TestWireTruncatedInputs drives every parser over all prefixes of valid
// bodies: none may panic, all must fail cleanly.
func TestWireTruncatedInputs(t *testing.T) {
	opNames := []string{"enqueue"}
	reqB, _ := appendRequest(make([]byte, 4), 123456, 0, "some-key", adt.Edge{P: 9, C: -9}, 0)
	respB, _ := appendResponse(make([]byte, 4), response{id: 1, ret: "payload", invoke: 5, respond: 9})
	helloB := appendHello(make([]byte, 4), opNames)
	for _, body := range [][]byte{reqB[4:], respB[4:], helloB[4:]} {
		for cut := 0; cut < len(body); cut++ {
			prefix := body[:cut]
			parseRequest(prefix, opNames)
			parseResponse(prefix)
			parseHello(prefix)
		}
	}
}

// startTCP serves ss on a loopback listener and returns the address.
func startTCP(t *testing.T, ss *ShardSet) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go ss.Serve(ln)
	return ln.Addr().String()
}

// TestBinaryClientRoundTrip runs the wire protocol end to end:
// hello/op-table handshake, pipelined calls, value fidelity, remote and
// local error paths, and the connection counter.
func TestBinaryClientRoundTrip(t *testing.T) {
	ss := startShardSet(t, 3, 1)
	addr := startTCP(t, ss)
	c, err := DialCodec(addr, CodecBinary)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if r, err := c.Call(adt.OpEnqueue, 42); err != nil || r.Ret != nil {
		t.Fatalf("binary enqueue = (%v, %v)", r.Ret, err)
	} else {
		if r.Class != classify.PureMutator {
			t.Errorf("binary class = %v, want MOP", r.Class)
		}
		if r.Latency() <= 0 {
			t.Errorf("binary latency = %v, want > 0", r.Latency())
		}
	}
	time.Sleep(5 * 40 * time.Millisecond)
	if r, err := c.Call(adt.OpDequeue, nil); err != nil || !spec.ValuesEqual(r.Ret, 42) {
		t.Errorf("binary dequeue = (%v, %v), want 42", r.Ret, err)
	}
	// Unknown ops fail locally: the negotiated table is the server's own
	// op list, so a miss cannot succeed remotely either.
	if _, err := c.Call("pop", nil); err == nil || !strings.Contains(err.Error(), "negotiated table") {
		t.Errorf("binary unknown op: err = %v", err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := c.Call(adt.OpEnqueue, i); err != nil {
				t.Errorf("pipelined binary call %d: %v", i, err)
			}
		}()
	}
	wg.Wait()
	if got := ss.fe.connsTotal.Value(); got != 1 {
		t.Errorf("connection counter = %d, want 1", got)
	}
}

func TestDialCodecUnknown(t *testing.T) {
	if _, err := DialCodec("127.0.0.1:1", "protobuf"); err == nil || !strings.Contains(err.Error(), "unknown codec") {
		t.Errorf("err = %v", err)
	}
}

// TestBinaryVersionRejected pins the handshake failure path: a
// connection that does not open with the LTW1 hello at a known version —
// a legacy JSON client, whose length header starts with 0x00, or an
// unknown version — gets exactly one protocol-fatal error frame (id −1)
// naming what the server requires, then EOF, and the server keeps
// serving a well-formed client.
func TestBinaryVersionRejected(t *testing.T) {
	addr := startTCP(t, startShardSet(t, 2, 1))
	jsonHeader := func(n uint32) []byte { return binary.BigEndian.AppendUint32(nil, n) }
	for _, tc := range []struct {
		name, want string
		opening    []byte
	}{
		{"unknown version", "version 99", append([]byte(wireMagic), 99)},
		{"legacy JSON frame header", wireMagic, jsonHeader(31)},
		{"oversized legacy JSON header", wireMagic, jsonHeader(maxFrame + 1)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			conn, err := net.Dial("tcp", addr)
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			conn.SetDeadline(time.Now().Add(5 * time.Second)) // a refusal, not a hang
			if _, err := conn.Write(tc.opening); err != nil {
				t.Fatal(err)
			}
			resp := readBinaryFrame(t, conn)
			if resp.id != errProtoID || !strings.Contains(resp.err, tc.want) {
				t.Errorf("refusal = %+v, want id %d naming %q", resp, errProtoID, tc.want)
			}
			if _, err := conn.Read(make([]byte, 1)); err != io.EOF {
				t.Errorf("connection after the refusal: read err = %v, want EOF", err)
			}
			c, err := Dial(addr)
			if err != nil {
				t.Fatalf("well-formed client after the refusal: %v", err)
			}
			defer c.Close()
			if _, err := c.Call(adt.OpEnqueue, 1); err != nil {
				t.Errorf("call after the refusal: %v", err)
			}
		})
	}
}

// readBinaryFrame reads one length-prefixed frame and parses it as a
// response/error frame.
func readBinaryFrame(t *testing.T, r io.Reader) response {
	t.Helper()
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		t.Fatalf("read frame header: %v", err)
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n > maxFrame {
		t.Fatalf("frame announces %d bytes", n)
	}
	body := make([]byte, n)
	if _, err := io.ReadFull(r, body); err != nil {
		t.Fatalf("read frame body: %v", err)
	}
	resp, err := parseResponse(body)
	if err != nil {
		t.Fatalf("parse frame: %v", err)
	}
	return resp
}

// TestOversizedRequestBinary sends, after a successful hello exchange, a
// frame header announcing a body beyond maxFrame: the server must answer
// with a typed protocol error frame (id −1) and close, not silently drop
// the connection.
func TestOversizedRequestBinary(t *testing.T) {
	addr := startTCP(t, startShardSet(t, 2, 1))
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write(append([]byte(wireMagic), wireVersion)); err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(conn)
	var hdr [4]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		t.Fatal(err)
	}
	hello := make([]byte, binary.BigEndian.Uint32(hdr[:]))
	if _, err := io.ReadFull(br, hello); err != nil {
		t.Fatal(err)
	}
	if _, _, err := parseHello(hello); err != nil {
		t.Fatalf("hello: %v", err)
	}
	binary.BigEndian.PutUint32(hdr[:], maxFrame+1)
	if _, err := conn.Write(hdr[:]); err != nil {
		t.Fatal(err)
	}
	resp := readBinaryFrame(t, br)
	if resp.id != errProtoID || !strings.Contains(resp.err, "exceeds") {
		t.Errorf("oversized request answer = %+v", resp)
	}
	if _, err := br.Read(make([]byte, 1)); err != io.EOF {
		t.Errorf("connection after oversized request: read err = %v, want EOF", err)
	}
}

// TestOversizedResponse drives the response writer with a result too
// large to frame: the client must receive a typed error response
// carrying the same request id, and the connection stays alive (only
// requests can poison the byte stream).
func TestOversizedResponse(t *testing.T) {
	huge := strings.Repeat("x", maxFrame+16)
	t.Run("binary", func(t *testing.T) {
		client, server := net.Pipe()
		defer client.Close()
		defer server.Close()
		go writeBinaryResponse(server, response{id: 31, ret: huge, invoke: 1, respond: 2})
		resp := readBinaryFrame(t, client)
		if resp.id != 31 || !strings.Contains(resp.err, "exceeds") {
			t.Errorf("oversized response = %+v", resp)
		}
	})
}

// TestOversizedClientRequest pins the client side of the size contract:
// an argument too large to frame fails locally without poisoning the
// connection, which stays usable for the next call.
func TestOversizedClientRequest(t *testing.T) {
	addr := startTCP(t, startShardSet(t, 2, 1))
	huge := strings.Repeat("x", maxFrame+16)
	t.Run(CodecBinary, func(t *testing.T) {
		c, err := DialCodec(addr, CodecBinary)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		if _, err := c.Call(adt.OpEnqueue, huge); err == nil || !strings.Contains(err.Error(), "exceeds") {
			t.Fatalf("oversized client arg: err = %v", err)
		}
		if _, err := c.Call(adt.OpEnqueue, 1); err != nil {
			t.Errorf("call after oversized failure: %v", err)
		}
	})
}

var benchSink any

// binaryRequestRoundTrip and binaryResponseRoundTrip push one untraced
// frame through the binary codec's full encode+decode path on a pooled
// buffer: what the codec micro-benchmarks time and TestWireBinaryAllocs
// counts.
func binaryRequestRoundTrip(id int64, opNames []string) error {
	bp := frameOut()
	defer frameIn(bp)
	buf, err := appendRequest(*bp, id, 0, "user:42", 12345, 0)
	if err != nil {
		return err
	}
	*bp = buf
	req, err := parseRequest(buf[4:], opNames)
	benchSink = req.arg
	return err
}

func binaryResponseRoundTrip(in response) error {
	bp := frameOut()
	defer frameIn(bp)
	buf, err := appendResponse(*bp, in)
	if err != nil {
		return err
	}
	*bp = buf
	out, err := parseResponse(buf[4:])
	benchSink = out.ret
	return err
}

var benchResponse = response{id: 7, ret: "user:42", class: classify.Mixed, shard: 3, invoke: 812, respond: 844}

// raceEnabled is set by race_test.go, which only a -race build compiles.
var raceEnabled bool

// TestWireBinaryAllocs pins the tracing-off codec floor: an untraced
// binary request or response round-trip allocates at most twice (the
// decoded key or string and the boxed value), however much the tracing
// subsystem around it grows.
func TestWireBinaryAllocs(t *testing.T) {
	allocs := func(roundTrip func() error) float64 {
		run := func() {
			if err := roundTrip(); err != nil {
				t.Fatal(err)
			}
		}
		if !raceEnabled {
			return testing.AllocsPerRun(100, run)
		}
		// Under the race detector sync.Pool drops a quarter of its Puts at
		// random (a dropped frame buffer is allocated again), so only the
		// cheapest single run is comparable there.
		best := math.Inf(1)
		for i := 0; i < 20; i++ {
			best = min(best, testing.AllocsPerRun(1, run))
		}
		return best
	}
	opNames := []string{"enqueue", "dequeue", "peek"}
	if got := allocs(func() error { return binaryRequestRoundTrip(7, opNames) }); got > 2 {
		t.Errorf("binary request round-trip: %.0f allocs, recorded floor 2", got)
	}
	if got := allocs(func() error { return binaryResponseRoundTrip(benchResponse) }); got > 2 {
		t.Errorf("binary response round-trip: %.0f allocs, recorded floor 2", got)
	}
}

// Codec micro-benchmarks: one request and one response frame through the
// full encode+decode path
// (go test -run xxx -bench BenchmarkWire -benchmem ./internal/serve/).
func BenchmarkWireBinaryRequest(b *testing.B) {
	opNames := []string{"enqueue", "dequeue", "peek"}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := binaryRequestRoundTrip(int64(i), opNames); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkWireBinaryResponse(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := binaryResponseRoundTrip(benchResponse); err != nil {
			b.Fatal(err)
		}
	}
}
