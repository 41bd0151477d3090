package trade

import (
	"context"
	"fmt"

	"edgeejb/internal/component"
)

// BrowseBundleResult is the combined result of a batched browse.
type BrowseBundleResult struct {
	Home      HomeResult
	Quote     QuoteResult
	Portfolio PortfolioResult
}

// BrowseBundle runs Home + Quote + Portfolio as ONE transaction instead
// of three. This implements the batching idea the paper sketches as
// future work: "workflow techniques could batch the commit of multiple
// client requests as a single transaction" (§4.4) — under the SLI cache
// the whole bundle costs a single commit round trip on the high-latency
// path, where three separate requests would cost three.
func (s *Service) BrowseBundle(ctx context.Context, userID, symbol string) (BrowseBundleResult, error) {
	var out BrowseBundleResult
	err := s.container.ExecuteRetry(ctx, s.attempts, func(tx *component.Tx) error {
		acct, q := &Account{UserID: userID}, &Quote{Symbol: symbol}
		if err := tx.Find(acct, q); err != nil {
			return fmt.Errorf("bundle home %s, quote %s: %w", userID, symbol, err)
		}
		out.Home = HomeResult{UserID: userID, Balance: acct.Balance, Open: acct.OpenBalance}
		out.Quote = QuoteResult{Symbol: symbol, Price: q.Price}

		out.Portfolio = PortfolioResult{UserID: userID}
		ents, err := tx.FindWhere(HoldingsByAccount(userID))
		if err != nil {
			return fmt.Errorf("bundle portfolio %s: %w", userID, err)
		}
		for _, e := range ents {
			h, ok := e.(*Holding)
			if !ok {
				return fmt.Errorf("bundle portfolio %s: unexpected entity %T", userID, e)
			}
			out.Portfolio.Holdings = append(out.Portfolio.Holdings, *h)
		}
		return nil
	})
	return out, err
}
