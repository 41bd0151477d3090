package appserver

import (
	"fmt"
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

func renderLogin(r trade.LoginResult) *reply {
	return page("Welcome back", fmt.Sprintf(
		"<p>User %s logged in (session %s).</p><p>Logins: %d. Cash balance: $%.2f.</p>",
		r.UserID, r.SessionID, r.LoginCount, r.Balance))
}

func renderLogout(user string) *reply {
	return page("Goodbye", fmt.Sprintf("<p>User %s logged off.</p>", user))
}

func renderRegister(user string) *reply {
	return page("Registration complete", fmt.Sprintf(
		"<p>Created account, profile and registry entry for %s.</p>", user))
}

func renderHome(r trade.HomeResult) *reply {
	return page("Trade Home", fmt.Sprintf(
		"<p>Welcome %s.</p><table class=\"panel-01\"><tr><td>Cash balance</td><td>$%.2f</td></tr>"+
			"<tr><td>Opening balance</td><td>$%.2f</td></tr></table>",
		r.UserID, r.Balance, r.Open))
}

func renderAccount(r trade.AccountResult) *reply {
	return page("Account Information", fmt.Sprintf(
		"<table class=\"panel-02\"><tr><td>User</td><td>%s</td></tr><tr><td>Name</td><td>%s</td></tr>"+
			"<tr><td>Address</td><td>%s</td></tr><tr><td>Email</td><td>%s</td></tr></table>",
		r.UserID, r.FullName, r.Address, r.Email))
}

func renderAccountUpdate(user string) *reply {
	return page("Account Updated", fmt.Sprintf("<p>Profile for %s updated.</p>", user))
}

func renderPortfolio(r trade.PortfolioResult) *reply {
	var sb strings.Builder
	fmt.Fprintf(&sb, "<p>%d holdings for %s.</p><table class=\"panel-03\">"+
		"<tr><th>Holding</th><th>Symbol</th><th>Qty</th><th>Price</th><th>Date</th></tr>",
		len(r.Holdings), r.UserID)
	for _, h := range r.Holdings {
		fmt.Fprintf(&sb, "<tr><td>%s</td><td>%s</td><td>%.0f</td><td>$%.2f</td><td>%s</td></tr>",
			h.HoldingID, h.Symbol, h.Quantity, h.PurchasePrice, h.PurchaseDate)
	}
	sb.WriteString("</table>")
	return page("Portfolio", sb.String())
}

func renderQuote(r trade.QuoteResult) *reply {
	return page("Quote", fmt.Sprintf(
		"<table class=\"panel-04\"><tr><td>Symbol</td><td>%s</td></tr>"+
			"<tr><td>Price</td><td>$%.2f</td></tr></table>", r.Symbol, r.Price))
}

func renderBuy(r trade.BuyResult) *reply {
	return page("Buy Order Confirmation", fmt.Sprintf(
		"<p>Bought %.0f %s @ $%.2f (total $%.2f). Holding %s. New balance $%.2f.</p>",
		r.Quantity, r.Symbol, r.Price, r.Total, r.HoldingID, r.Balance))
}

func renderSell(r trade.SellResult) *reply {
	if !r.Sold {
		return page("Sell Order", "<p>No holdings to sell.</p>")
	}
	return page("Sell Order Confirmation", fmt.Sprintf(
		"<p>Sold %.0f %s @ $%.2f (proceeds $%.2f). Holding %s closed. New balance $%.2f.</p>",
		r.Quantity, r.Symbol, r.Price, r.Proceeds, r.HoldingID, r.Balance))
}
