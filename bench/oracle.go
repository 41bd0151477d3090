package main

import (
	"bytes"
	"context"
	"fmt"
	"math"

	"edgeejb/internal/appserver"
	"edgeejb/internal/memento"
	"edgeejb/internal/sqlstore"
	"edgeejb/internal/storeapi"
	"edgeejb/internal/trade"
)

// registerBalance is what appserver.Server opens a registered account
// with.
const registerBalance = 1_000_000

// checkBody is oracle (a): an OK response carries a page that names the
// step's subject — the user, the new user, or the symbol.
func checkBody(st trade.Step, resp *appserver.Response) error {
	var needle string
	switch st.Action {
	case trade.ActionRegister:
		needle = st.NewUserID
	case trade.ActionQuote, trade.ActionBuy:
		needle = st.Symbol
	case trade.ActionSell:
		// The confirmation names the closed holding, h-<user>-<n>.
		if bytes.Contains(resp.Body, []byte("No holdings to sell")) {
			return nil
		}
		needle = "h-" + st.UserID + "-"
	default:
		needle = st.UserID
	}
	if len(resp.Body) == 0 || !bytes.Contains(resp.Body, []byte(needle)) {
		return fmt.Errorf("oracle: %s page for %s does not mention %q (%d bytes)",
			st.Action, st.UserID, needle, len(resp.Body))
	}
	return nil
}

// netWorth reads, straight from the store, every account's balance plus
// the market value of its holdings. No Trade action changes a quote's
// price, so buys and sells move value between the two terms and the sum
// never changes.
func netWorth(ctx context.Context, store *sqlstore.Store) (map[string]float64, error) {
	conn := storeapi.Local(store)
	table := func(name string) ([]memento.Memento, error) {
		res, err := conn.AutoQuery(ctx, memento.Query{Table: name})
		if err != nil {
			return nil, fmt.Errorf("oracle: read %s: %w", name, err)
		}
		return res.Mems, nil
	}
	quotes, err := table(trade.TableQuote)
	if err != nil {
		return nil, err
	}
	price := make(map[string]float64, len(quotes))
	for _, m := range quotes {
		var q trade.Quote
		if err := q.LoadMemento(m); err != nil {
			return nil, err
		}
		price[q.Symbol] = q.Price
	}
	accounts, err := table(trade.TableAccount)
	if err != nil {
		return nil, err
	}
	worth := make(map[string]float64, len(accounts))
	for _, m := range accounts {
		var a trade.Account
		if err := a.LoadMemento(m); err != nil {
			return nil, err
		}
		worth[a.UserID] = a.Balance
	}
	holdings, err := table(trade.TableHolding)
	if err != nil {
		return nil, err
	}
	for _, m := range holdings {
		var h trade.Holding
		if err := h.LoadMemento(m); err != nil {
			return nil, err
		}
		p, ok := price[h.Symbol]
		if !ok {
			return nil, fmt.Errorf("oracle: holding %s of unknown symbol %s", h.HoldingID, h.Symbol)
		}
		if _, ok := worth[h.AccountID]; !ok {
			return nil, fmt.Errorf("oracle: holding %s of unknown account %s", h.HoldingID, h.AccountID)
		}
		worth[h.AccountID] += h.Quantity * p
	}
	return worth, nil
}

// checkWorth is oracle (b): every pre-registered user's net worth is
// conserved to 1e-9 relative, and every user registered since is worth
// exactly the opening balance.
func checkWorth(before, after map[string]float64) error {
	for user, was := range before {
		now, ok := after[user]
		if !ok {
			return fmt.Errorf("oracle: account %s vanished", user)
		}
		if math.Abs(now-was) > 1e-9*math.Abs(was) {
			return fmt.Errorf("oracle: net worth of %s moved from %.6f to %.6f", user, was, now)
		}
	}
	for user, now := range after {
		if _, ok := before[user]; !ok && now != registerBalance {
			return fmt.Errorf("oracle: registered user %s is worth %.6f, not the opening balance", user, now)
		}
	}
	return nil
}
