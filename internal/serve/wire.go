// Wire codec: the frames of the serving protocol.
//
// A connection opens with a 5-byte client hello — the 4-byte magic
// "LTW1" followed by the protocol version. The server answers with a
// hello frame carrying the op table (the served type's operation names
// in declaration order); from then on every request names its operation
// by table index instead of a string, and both sides exchange
// length-prefixed binary frames:
//
//	frame     := len(4, big-endian) body        body ≤ maxFrame
//	hello     := 0x04 version opCount (nameLen name)* [caps]
//	request   := 0x01 flags id(zigzag) opcode(uvarint) keyLen key value
//	             [trace(zigzag)]
//	response  := 0x02 flags id(zigzag) class(1) shard(uvarint)
//	             invoke(zigzag) respond(zigzag) value
//	error     := 0x03 flags id(zigzag) msgLen msg
//
// All integers are varints (zigzag for signed). The flags byte was
// reserved (zero) in the original protocol; bit 0x01 (flagTrace) now
// marks a request carrying a trailing trace-context varint — the
// client-side span id the server records as the operation's causal
// parent. The server's hello frame grew a trailing capabilities byte
// (wireCapTracing announces trace-context support); parsers that predate
// it ignored trailing bytes, and parseHello accepts its absence, so both
// directions interoperate with version-1 peers. Untraced requests set no
// flag and append no varint: byte-identical to the original encoding.
// An error frame with id −1 is protocol-fatal: the sender closes the
// connection after writing it (see the wrong-hello and oversized-frame
// handling in proto.go). Values use a tagged compact encoding of the
// histio interchange kinds — histio's JSON encoding is the oracle the
// FuzzFrame target holds this codec to:
//
//	value := 0x00                      nil
//	       | 0x01 int(zigzag)          integer
//	       | 0x02 len bytes            string
//	       | 0x03                      true
//	       | 0x04                      false
//	       | 0x05 p(zigzag) c(zigzag)  adt.Edge
//	       | 0x06 len bytes v(zigzag)  adt.KV
//
// Encoding appends into pooled buffers (frameOut/frameIn) so the steady
// path allocates nothing; decoding copies strings out of the connection's
// read buffer, so frames can share one reusable buffer per connection.
package serve

import (
	"encoding/binary"
	"fmt"
	"io"
	"sync"

	"lintime/internal/adt"
	"lintime/internal/classify"
	"lintime/internal/spec"
)

const (
	wireMagic   = "LTW1"
	wireVersion = 1
)

// Frame type tags.
const (
	frameRequest  = 0x01
	frameResponse = 0x02
	frameError    = 0x03
	frameHello    = 0x04
)

// flagTrace marks a request frame carrying a trailing trace-context
// varint (the client-side parent span id) after the value.
const flagTrace = 0x01

// wireCapTracing is the hello capabilities bit announcing that the
// server understands request trace contexts.
const wireCapTracing = 0x01

// Value encoding tags.
const (
	tagNil    = 0x00
	tagInt    = 0x01
	tagString = 0x02
	tagTrue   = 0x03
	tagFalse  = 0x04
	tagEdge   = 0x05
	tagKV     = 0x06
)

// errProtoID marks a protocol-fatal error frame: the connection is
// unusable after it (the byte stream may be out of sync), so the sender
// closes and the receiver fails every pending call.
const errProtoID = -1

// wireBufPool holds reusable frame-assembly buffers. Buffers start with
// the 4-byte length placeholder so a finished frame is written with a
// single conn.Write.
var wireBufPool = sync.Pool{New: func() any {
	b := make([]byte, 0, 4096)
	return &b
}}

func frameOut() *[]byte {
	bp := wireBufPool.Get().(*[]byte)
	*bp = append((*bp)[:0], 0, 0, 0, 0)
	return bp
}

func frameIn(bp *[]byte) { wireBufPool.Put(bp) }

// finishFrame stamps the length header and writes the whole frame in one
// call. Oversized bodies are the caller's problem (checked before).
func finishFrame(w io.Writer, frame []byte) error {
	binary.BigEndian.PutUint32(frame[:4], uint32(len(frame)-4))
	_, err := w.Write(frame)
	return err
}

func appendUvarint(b []byte, v uint64) []byte {
	return binary.AppendUvarint(b, v)
}

func appendVarint(b []byte, v int64) []byte {
	return binary.AppendVarint(b, v)
}

func appendBytes(b []byte, s string) []byte {
	b = appendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// appendWireValue appends the tagged compact encoding of a histio
// interchange value (nil, int, string, bool, adt.Edge, adt.KV).
func appendWireValue(b []byte, v spec.Value) ([]byte, error) {
	switch x := v.(type) {
	case nil:
		return append(b, tagNil), nil
	case int:
		b = append(b, tagInt)
		return appendVarint(b, int64(x)), nil
	case string:
		b = append(b, tagString)
		return appendBytes(b, x), nil
	case bool:
		if x {
			return append(b, tagTrue), nil
		}
		return append(b, tagFalse), nil
	case adt.Edge:
		b = append(b, tagEdge)
		b = appendVarint(b, int64(x.P))
		return appendVarint(b, int64(x.C)), nil
	case adt.KV:
		b = append(b, tagKV)
		b = appendBytes(b, x.K)
		return appendVarint(b, int64(x.V)), nil
	default:
		return b, fmt.Errorf("serve: binary codec: unsupported value %v (%T)", v, v)
	}
}

// wireReader consumes a frame body sequentially. Decoding never panics on
// malformed input: every read checks remaining length and sets a sticky
// error instead.
type wireReader struct {
	b   []byte
	err error
}

func (r *wireReader) fail(what string) {
	if r.err == nil {
		r.err = fmt.Errorf("serve: binary codec: truncated or malformed %s", what)
	}
}

func (r *wireReader) byte(what string) byte {
	if r.err != nil {
		return 0
	}
	if len(r.b) == 0 {
		r.fail(what)
		return 0
	}
	v := r.b[0]
	r.b = r.b[1:]
	return v
}

func (r *wireReader) uvarint(what string) uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.b)
	if n <= 0 {
		r.fail(what)
		return 0
	}
	r.b = r.b[n:]
	return v
}

func (r *wireReader) varint(what string) int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.b)
	if n <= 0 {
		r.fail(what)
		return 0
	}
	r.b = r.b[n:]
	return v
}

// bytes reads a length-prefixed byte string, copying it out of the frame
// buffer (the buffer is reused for the next frame).
func (r *wireReader) bytes(what string) string {
	n := r.uvarint(what)
	if r.err != nil {
		return ""
	}
	if n > uint64(len(r.b)) {
		r.fail(what)
		return ""
	}
	s := string(r.b[:n])
	r.b = r.b[n:]
	return s
}

func (r *wireReader) value() spec.Value {
	switch tag := r.byte("value tag"); tag {
	case tagNil:
		return nil
	case tagInt:
		return int(r.varint("int value"))
	case tagString:
		return r.bytes("string value")
	case tagTrue:
		return true
	case tagFalse:
		return false
	case tagEdge:
		return adt.Edge{P: int(r.varint("edge p")), C: int(r.varint("edge c"))}
	case tagKV:
		return adt.KV{K: r.bytes("kv key"), V: int(r.varint("kv value"))}
	default:
		if r.err == nil {
			r.err = fmt.Errorf("serve: binary codec: unknown value tag 0x%02x", tag)
		}
		return nil
	}
}

// appendHello appends a hello frame body announcing the op table and the
// server's capability bits.
func appendHello(b []byte, opNames []string) []byte {
	b = append(b, frameHello, wireVersion)
	b = appendUvarint(b, uint64(len(opNames)))
	for _, name := range opNames {
		b = appendBytes(b, name)
	}
	return append(b, wireCapTracing)
}

// parseHello decodes a hello frame body into the op table and capability
// bits. A hello without the trailing capabilities byte (a pre-tracing
// server) parses with caps 0.
func parseHello(body []byte) ([]string, byte, error) {
	r := &wireReader{b: body}
	if t := r.byte("frame type"); r.err == nil && t != frameHello {
		return nil, 0, fmt.Errorf("serve: binary codec: expected hello frame, got type 0x%02x", t)
	}
	if v := r.byte("version"); r.err == nil && v != wireVersion {
		return nil, 0, fmt.Errorf("serve: binary protocol version %d not supported (have %d)", v, wireVersion)
	}
	n := r.uvarint("op count")
	if r.err == nil && n > uint64(len(r.b)) {
		// Each op name costs at least one byte; an announced count beyond
		// the remaining body is malformed, not a huge allocation.
		r.fail("op count")
	}
	if r.err != nil {
		return nil, 0, r.err
	}
	names := make([]string, 0, n)
	for i := uint64(0); i < n; i++ {
		names = append(names, r.bytes("op name"))
	}
	if r.err != nil {
		return nil, 0, r.err
	}
	var caps byte
	if len(r.b) > 0 {
		caps = r.byte("capabilities")
	}
	return names, caps, nil
}

// appendRequest appends a request frame body. The opcode indexes the
// negotiated op table. A nonzero trace sets flagTrace and appends the
// trace-context varint; zero (untraced) emits the original encoding
// byte for byte.
func appendRequest(b []byte, id int64, opcode uint64, key string, arg spec.Value, trace int64) ([]byte, error) {
	flags := byte(0)
	if trace != 0 {
		flags |= flagTrace
	}
	b = append(b, frameRequest, flags)
	b = appendVarint(b, id)
	b = appendUvarint(b, opcode)
	b = appendBytes(b, key)
	b, err := appendWireValue(b, arg)
	if err != nil {
		return b, err
	}
	if trace != 0 {
		b = appendVarint(b, trace)
	}
	return b, nil
}

// parseRequest decodes a request frame body against the op table.
func parseRequest(body []byte, opNames []string) (request, error) {
	r := &wireReader{b: body}
	if t := r.byte("frame type"); r.err == nil && t != frameRequest {
		return request{}, fmt.Errorf("serve: binary codec: expected request frame, got type 0x%02x", t)
	}
	flags := r.byte("flags")
	id := r.varint("request id")
	opcode := r.uvarint("opcode")
	key := r.bytes("key")
	arg := r.value()
	var trace int64
	if r.err == nil && flags&flagTrace != 0 {
		trace = r.varint("trace context")
	}
	if r.err != nil {
		return request{id: id}, r.err
	}
	if opcode >= uint64(len(opNames)) {
		return request{id: id}, fmt.Errorf("serve: binary codec: opcode %d outside the negotiated table (%d ops)", opcode, len(opNames))
	}
	return request{id: id, key: key, op: opNames[opcode], arg: arg, trace: trace}, nil
}

// appendResponse appends a response or error frame body for the decoded
// response.
func appendResponse(b []byte, resp response) ([]byte, error) {
	if resp.err != "" {
		return appendErrorFrame(b, resp.id, resp.err), nil
	}
	b = append(b, frameResponse, 0) // type, flags
	b = appendVarint(b, resp.id)
	b = append(b, byte(resp.class))
	b = appendUvarint(b, uint64(resp.shard))
	b = appendVarint(b, resp.invoke)
	b = appendVarint(b, resp.respond)
	return appendWireValue(b, resp.ret)
}

func appendErrorFrame(b []byte, id int64, msg string) []byte {
	b = append(b, frameError, 0) // type, flags
	b = appendVarint(b, id)
	return appendBytes(b, msg)
}

// parseResponse decodes a response or error frame body.
func parseResponse(body []byte) (response, error) {
	r := &wireReader{b: body}
	switch t := r.byte("frame type"); {
	case r.err != nil:
		return response{}, r.err
	case t == frameError:
		r.byte("flags")
		id := r.varint("response id")
		msg := r.bytes("error message")
		if r.err != nil {
			return response{}, r.err
		}
		return response{id: id, err: msg}, nil
	case t == frameResponse:
		r.byte("flags")
		resp := response{id: r.varint("response id")}
		resp.class = classify.Class(r.byte("class"))
		resp.shard = int(r.uvarint("shard"))
		resp.invoke = r.varint("invoke")
		resp.respond = r.varint("respond")
		resp.ret = r.value()
		if r.err != nil {
			return response{}, r.err
		}
		return resp, nil
	default:
		return response{}, fmt.Errorf("serve: binary codec: unexpected frame type 0x%02x", t)
	}
}
