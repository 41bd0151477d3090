package appserver

import (
	"fmt"
	"strconv"
	"strings"

	"edgeejb/internal/trade"
)

// pageChrome is the presentation portion shared by every page: markup,
// styles and scripts a brokerage front-end would ship with each
// response. Its size is what separates the Clients/RAS bandwidth curve
// from the edge architectures in Figure 8, so it is deliberately sized
// like a real (2004-era) page: about 6 KB.
var pageChrome = buildChrome()

func buildChrome() string {
	var sb strings.Builder
	sb.WriteString("<!DOCTYPE html><html><head><title>Trade - Online Brokerage</title>\n")
	sb.WriteString("<style>\n")
	for i := 0; i < 40; i++ {
		fmt.Fprintf(&sb, ".panel-%02d { border: 1px solid #003366; padding: 4px; margin: 2px; "+
			"font-family: Verdana, Arial, sans-serif; font-size: 11px; color: #00%02x66; }\n", i, i*4)
	}
	sb.WriteString("</style>\n<script>\n")
	for i := 0; i < 25; i++ {
		fmt.Fprintf(&sb, "function nav_%02d(t) { document.location = '/trade/action?dest=' + t + '&panel=%02d'; }\n", i, i)
	}
	sb.WriteString("</script>\n</head><body>\n")
	sb.WriteString("<table width=\"100%\" class=\"panel-00\"><tr>")
	for _, item := range []string{
		"Home", "Account", "Portfolio", "Quotes/Trade", "Logoff",
		"Market Summary", "Glossary", "Help", "Contact",
	} {
		fmt.Fprintf(&sb, "<td><a href=\"#\" onclick=\"nav_00('%s')\">%s</a></td>", item, item)
	}
	sb.WriteString("</tr></table>\n")
	return sb.String()
}

const pageFooter = "<hr><i>Trade benchmark application &mdash; edge-server architecture evaluation.</i></body></html>\n"

// pageLen is the length of the page appendPage lays out.
func pageLen(title, frag string) int {
	return len(pageChrome) + len("<h1></h1>\n") + len(title) + len(frag) + len(pageFooter)
}

// appendPage appends the page: the shared chrome, the title heading,
// the fragment and the footer.
func appendPage(dst []byte, title, frag string) []byte {
	dst = append(dst, pageChrome...)
	dst = append(dst, "<h1>"...)
	dst = append(dst, title...)
	dst = append(dst, "</h1>\n"...)
	dst = append(dst, frag...)
	return append(dst, pageFooter...)
}

// renderPage returns the page of a title and fragment on its own.
func renderPage(title, frag string) []byte {
	return appendPage(make([]byte, 0, pageLen(title, frag)), title, frag)
}

// The fragments are built with plain appends into one buffer, which
// fmt would box every argument for; the bytes are what "%s", "%d",
// "%.0f" and "$%.2f" print.

// fragCap is a fragment buffer's first capacity: every fragment but a
// long portfolio's fits it.
const fragCap = 512

// money appends v as "$%.2f" does.
func money(b []byte, v float64) []byte {
	return strconv.AppendFloat(append(b, '$'), v, 'f', 2, 64)
}

// whole appends v as "%.0f" does.
func whole(b []byte, v float64) []byte { return strconv.AppendFloat(b, v, 'f', 0, 64) }

func renderLogin(r trade.LoginResult) *reply {
	b := append(make([]byte, 0, fragCap), "<p>User "...)
	b = append(append(b, r.UserID...), " logged in (session "...)
	b = append(append(b, r.SessionID...), ").</p><p>Logins: "...)
	b = append(strconv.AppendInt(b, r.LoginCount, 10), ". Cash balance: "...)
	b = append(money(b, r.Balance), ".</p>"...)
	return page("Welcome back", string(b))
}

func renderLogout(user string) *reply {
	return page("Goodbye", "<p>User "+user+" logged off.</p>")
}

func renderRegister(user string) *reply {
	return page("Registration complete", "<p>Created account, profile and registry entry for "+user+".</p>")
}

func renderHome(r trade.HomeResult) *reply {
	b := append(make([]byte, 0, fragCap), "<p>Welcome "...)
	b = append(append(b, r.UserID...), ".</p><table class=\"panel-01\"><tr><td>Cash balance</td><td>"...)
	b = append(money(b, r.Balance), "</td></tr><tr><td>Opening balance</td><td>"...)
	b = append(money(b, r.Open), "</td></tr></table>"...)
	return page("Trade Home", string(b))
}

func renderAccount(r trade.AccountResult) *reply {
	return page("Account Information",
		"<table class=\"panel-02\"><tr><td>User</td><td>"+r.UserID+"</td></tr><tr><td>Name</td><td>"+r.FullName+"</td></tr>"+
			"<tr><td>Address</td><td>"+r.Address+"</td></tr><tr><td>Email</td><td>"+r.Email+"</td></tr></table>")
}

func renderAccountUpdate(user string) *reply {
	return page("Account Updated", "<p>Profile for "+user+" updated.</p>")
}

func renderPortfolio(r trade.PortfolioResult) *reply {
	b := strconv.AppendInt(append(make([]byte, 0, fragCap), "<p>"...), int64(len(r.Holdings)), 10)
	b = append(append(append(b, " holdings for "...), r.UserID...), ".</p><table class=\"panel-03\">"+
		"<tr><th>Holding</th><th>Symbol</th><th>Qty</th><th>Price</th><th>Date</th></tr>"...)
	for _, h := range r.Holdings {
		b = append(append(append(b, "<tr><td>"...), h.HoldingID...), "</td><td>"...)
		b = append(append(b, h.Symbol...), "</td><td>"...)
		b = append(whole(b, h.Quantity), "</td><td>"...)
		b = append(money(b, h.PurchasePrice), "</td><td>"...)
		b = append(append(b, h.PurchaseDate...), "</td></tr>"...)
	}
	return page("Portfolio", string(append(b, "</table>"...)))
}

func renderQuote(r trade.QuoteResult) *reply {
	b := append(make([]byte, 0, fragCap), "<table class=\"panel-04\"><tr><td>Symbol</td><td>"...)
	b = append(append(b, r.Symbol...), "</td></tr><tr><td>Price</td><td>"...)
	b = append(money(b, r.Price), "</td></tr></table>"...)
	return page("Quote", string(b))
}

func renderBuy(r trade.BuyResult) *reply {
	b := append(whole(append(make([]byte, 0, fragCap), "<p>Bought "...), r.Quantity), ' ')
	b = append(append(b, r.Symbol...), " @ "...)
	b = append(money(b, r.Price), " (total "...)
	b = append(money(b, r.Total), "). Holding "...)
	b = append(append(b, r.HoldingID...), ". New balance "...)
	b = append(money(b, r.Balance), ".</p>"...)
	return page("Buy Order Confirmation", string(b))
}

func renderSell(r trade.SellResult) *reply {
	if !r.Sold {
		return page("Sell Order", "<p>No holdings to sell.</p>")
	}
	b := append(whole(append(make([]byte, 0, fragCap), "<p>Sold "...), r.Quantity), ' ')
	b = append(append(b, r.Symbol...), " @ "...)
	b = append(money(b, r.Price), " (proceeds "...)
	b = append(money(b, r.Proceeds), "). Holding "...)
	b = append(append(b, r.HoldingID...), " closed. New balance "...)
	b = append(money(b, r.Balance), ".</p>"...)
	return page("Sell Order Confirmation", string(b))
}
