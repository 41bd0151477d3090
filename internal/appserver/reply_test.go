package appserver

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"strings"
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

// TestFragmentsPrintAsFmt: the fragments are appended by hand, and
// print byte for byte what the fmt verbs they stand for print, for
// values that round, grow long, go negative or are not numbers.
func TestFragmentsPrintAsFmt(t *testing.T) {
	for _, v := range []float64{0, 21.5, 0.005, 2.675, -3.14159, 99999.995, 1e21, -0.0, math.Inf(1), math.NaN()} {
		h := trade.Holding{HoldingID: "h-1", Symbol: "s:7", Quantity: v, PurchasePrice: v, PurchaseDate: "2004-03-01"}
		for _, tc := range []struct{ got, want string }{
			{renderLogin(trade.LoginResult{UserID: "u", SessionID: "s", LoginCount: -7, Balance: v}).frag,
				fmt.Sprintf("<p>User %s logged in (session %s).</p><p>Logins: %d. Cash balance: $%.2f.</p>", "u", "s", -7, v)},
			{renderHome(trade.HomeResult{UserID: "u", Balance: v, Open: -v}).frag,
				fmt.Sprintf("<p>Welcome %s.</p><table class=\"panel-01\"><tr><td>Cash balance</td><td>$%.2f</td></tr>"+
					"<tr><td>Opening balance</td><td>$%.2f</td></tr></table>", "u", v, -v)},
			{renderPortfolio(trade.PortfolioResult{UserID: "u", Holdings: []trade.Holding{h, h}}).frag,
				fmt.Sprintf("<p>%d holdings for %s.</p><table class=\"panel-03\">"+
					"<tr><th>Holding</th><th>Symbol</th><th>Qty</th><th>Price</th><th>Date</th></tr>", 2, "u") +
					strings.Repeat(fmt.Sprintf("<tr><td>%s</td><td>%s</td><td>%.0f</td><td>$%.2f</td><td>%s</td></tr>",
						h.HoldingID, h.Symbol, v, v, h.PurchaseDate), 2) + "</table>"},
			{renderQuote(trade.QuoteResult{Symbol: "s:7", Price: v}).frag,
				fmt.Sprintf("<table class=\"panel-04\"><tr><td>Symbol</td><td>%s</td></tr>"+
					"<tr><td>Price</td><td>$%.2f</td></tr></table>", "s:7", v)},
			{renderBuy(trade.BuyResult{HoldingID: "h-1", Symbol: "s:7", Quantity: v, Price: v, Total: -v, Balance: 1}).frag,
				fmt.Sprintf("<p>Bought %.0f %s @ $%.2f (total $%.2f). Holding %s. New balance $%.2f.</p>", v, "s:7", v, -v, "h-1", 1.0)},
			{renderSell(trade.SellResult{HoldingID: "h-1", Symbol: "s:7", Quantity: v, Price: v, Proceeds: -v, Balance: 1, Sold: true}).frag,
				fmt.Sprintf("<p>Sold %.0f %s @ $%.2f (proceeds $%.2f). Holding %s closed. New balance $%.2f.</p>", v, "s:7", v, -v, "h-1", 1.0)},
			{renderAccount(trade.AccountResult{UserID: "u", FullName: "F N", Address: "A", Email: "e@x"}).frag,
				fmt.Sprintf("<table class=\"panel-02\"><tr><td>User</td><td>%s</td></tr><tr><td>Name</td><td>%s</td></tr>"+
					"<tr><td>Address</td><td>%s</td></tr><tr><td>Email</td><td>%s</td></tr></table>", "u", "F N", "A", "e@x")},
			{renderLogout("u").frag, fmt.Sprintf("<p>User %s logged off.</p>", "u")},
			{renderRegister("u").frag, fmt.Sprintf("<p>Created account, profile and registry entry for %s.</p>", "u")},
			{renderAccountUpdate("u").frag, fmt.Sprintf("<p>Profile for %s updated.</p>", "u")},
		} {
			if tc.got != tc.want {
				t.Errorf("value %v:\n got %q\nwant %q", v, tc.got, tc.want)
			}
		}
	}
}
