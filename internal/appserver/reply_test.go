package appserver

import (
	"bytes"
	"context"
	"testing"

	"edgeejb/internal/trade"
	"edgeejb/internal/wire"
)

// TestPageReplyIsTheResponse: every action's reply, and a failed one,
// encodes to the bytes of the Response that carries its page, and
// decodes through Response.ReadWire to that page, on a name table's
// first crossing and on its second.
func TestPageReplyIsTheResponse(t *testing.T) {
	srv, _ := newAppServer(t)
	ctx := context.Background()
	user := trade.UserID(0)
	steps := []trade.Step{
		{Action: trade.ActionLogin, UserID: user, SessionID: "s1"},
		{Action: trade.ActionHome, UserID: user},
		{Action: trade.ActionAccount, UserID: user},
		{Action: trade.ActionAccountUpdate, UserID: user, Address: "1 Edge Way", Email: "e@example.test"},
		{Action: trade.ActionPortfolio, UserID: user},
		{Action: trade.ActionQuote, UserID: user, Symbol: trade.SymbolID(1)},
		{Action: trade.ActionBuy, UserID: user, Symbol: trade.SymbolID(1), Quantity: 2},
		{Action: trade.ActionSell, UserID: user},
		{Action: trade.ActionSell, UserID: trade.UserID(1)},
		{Action: trade.ActionSell, UserID: trade.UserID(1)},
		{Action: trade.ActionSell, UserID: trade.UserID(1)}, // no holdings left
		{Action: trade.ActionRegister, UserID: user, NewUserID: "reg-1", FullName: "R U", Email: "r@example.test"},
		{Action: trade.ActionLogout, UserID: user},
		{Action: trade.ActionHome, UserID: "ghost"}, // fails
	}
	titles := make(map[string]bool)
	for i, step := range steps {
		req, err := StepRequest(step)
		if err != nil {
			t.Fatal(err)
		}
		rep := srv.dispatch(ctx, req)
		var want *Response
		if rep.ok {
			titles[rep.title] = true
			want = &Response{OK: true, Body: renderPage(rep.title, rep.frag)}
		} else {
			if i != len(steps)-1 {
				t.Fatalf("step %d (%s) failed: %s", i, step.Action, rep.err)
			}
			want = &Response{Err: rep.err}
		}
		enc, dec := new(wire.Names), new(wire.Names)
		for _, pass := range []string{"first", "second"} {
			data := rep.AppendWire([]byte("frame header"), enc)
			if wantData := want.AppendWire([]byte("frame header"), enc); !bytes.Equal(data, wantData) {
				t.Fatalf("step %d (%s), %s crossing: reply encodes to %d bytes, its Response to %d", i, step.Action, pass, len(data), len(wantData))
			}
			got := new(Response)
			if err := got.ReadWire(data[len("frame header"):], dec); err != nil {
				t.Fatalf("step %d (%s), %s crossing: %v", i, step.Action, pass, err)
			}
			if got.OK != want.OK || got.Err != want.Err || !bytes.Equal(got.Body, want.Body) {
				t.Fatalf("step %d (%s), %s crossing: decoded %v/%q and a %d-byte page, want %v/%q and %d bytes",
					i, step.Action, pass, got.OK, got.Err, len(got.Body), want.OK, want.Err, len(want.Body))
			}
		}
	}
	// Every action's page, and both of sell's.
	if len(titles) != 11 {
		t.Errorf("saw %d page titles, want 11: %v", len(titles), titles)
	}
}

// BenchmarkPageReply renders one Portfolio reply and appends it to a
// reused frame buffer, as a server connection does: the page is laid
// out in the frame, so only the reply and its fragment allocate.
func BenchmarkPageReply(b *testing.B) {
	r := trade.PortfolioResult{UserID: trade.UserID(0)}
	for i := 0; i < 4; i++ {
		r.Holdings = append(r.Holdings, trade.Holding{
			HoldingID: "h-0-1", Symbol: trade.SymbolID(i), Quantity: 100, PurchasePrice: 21.5, PurchaseDate: "2004-03-01",
		})
	}
	var frame []byte
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		frame = renderPortfolio(r).AppendWire(frame[:0], nil)
	}
}
