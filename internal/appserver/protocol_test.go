package appserver

import (
	"reflect"
	"testing"
)

func corpusRequests() []*Request {
	return []*Request{
		{},
		{SessionID: "s-1", Action: "login", Params: map[string]string{"user": "uid-1"}},
		{Action: "buy", Params: map[string]string{"user": "uid-1", "symbol": "s-7", "quantity": "100"}},
		{Action: "portfolio", Params: map[string]string{"user": ""}},
	}
}

func corpusResponses() []*Response {
	return []*Response{
		{},
		{OK: true, Body: []byte("<html>portfolio of uid-1</html>")},
		{Err: "sqlstore: optimistic conflict"},
	}
}

func TestProtocolRoundTrip(t *testing.T) {
	for _, req := range corpusRequests() {
		got := new(Request)
		if err := got.ReadWire(req.AppendWire(nil, nil), nil); err != nil {
			t.Fatalf("%+v: %v", req, err)
		}
		if !reflect.DeepEqual(got, req) {
			t.Errorf("request came back as %+v, want %+v", got, req)
		}
	}
	for _, resp := range corpusResponses() {
		data := resp.AppendWire(nil, nil)
		got := new(Response)
		if err := got.ReadWire(data, nil); err != nil {
			t.Fatalf("%+v: %v", resp, err)
		}
		if !reflect.DeepEqual(got, resp) {
			t.Errorf("response came back as %+v, want %+v", got, resp)
		}
		// The page must not alias the connection's read buffer.
		for i := range data {
			data[i] = 0xff
		}
		if !reflect.DeepEqual(got, resp) {
			t.Errorf("response %+v changed when its frame buffer was reused", resp)
		}
	}
}

// TestProtocolRejectsTruncatedBodies feeds every strict prefix of a
// valid encoding, and one byte too many, to the decoders.
func TestProtocolRejectsTruncatedBodies(t *testing.T) {
	req := corpusRequests()[2].AppendWire(nil, nil)
	for n := 0; n < len(req); n++ {
		if new(Request).ReadWire(req[:n], nil) == nil {
			t.Fatalf("decoding %d/%d-byte request prefix succeeded", n, len(req))
		}
	}
	resp := corpusResponses()[1].AppendWire(nil, nil)
	for n := 0; n < len(resp); n++ {
		if new(Response).ReadWire(resp[:n], nil) == nil {
			t.Fatalf("decoding %d/%d-byte response prefix succeeded", n, len(resp))
		}
	}
	if new(Request).ReadWire(append(req, 0), nil) == nil || new(Response).ReadWire(append(resp, 0), nil) == nil {
		t.Error("decoder accepted a trailing byte")
	}
}

// FuzzRequestReadWire and FuzzResponseReadWire feed arbitrary bytes to
// the decoders: a body either fails to decode or decodes to a value
// that encodes and decodes again, and nothing panics.
func FuzzRequestReadWire(f *testing.F) {
	for _, req := range corpusRequests() {
		f.Add(req.AppendWire(nil, nil))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		req := new(Request)
		if req.ReadWire(data, nil) != nil {
			return
		}
		if err := new(Request).ReadWire(req.AppendWire(nil, nil), nil); err != nil {
			t.Fatalf("re-encoded request does not decode: %v", err)
		}
	})
}

func FuzzResponseReadWire(f *testing.F) {
	for _, resp := range corpusResponses() {
		f.Add(resp.AppendWire(nil, nil))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		resp := new(Response)
		if resp.ReadWire(data, nil) != nil {
			return
		}
		if err := new(Response).ReadWire(resp.AppendWire(nil, nil), nil); err != nil {
			t.Fatalf("re-encoded response does not decode: %v", err)
		}
	})
}
