package trade

import (
	"context"
	"fmt"
	"sync/atomic"

	"edgeejb/internal/component"
)

// Service is the Trade session bean: one method per trade action, each
// running as a single container transaction, matching Table 1's
// per-action CMP operations and database activity. The service is
// algorithm-agnostic: the container's resource manager decides whether
// access is JDBC, vanilla EJB or cached EJB.
type Service struct {
	container *component.Container
	attempts  int
	seq       atomic.Uint64
	clock     func() string
}

// NewService builds the session-bean layer over a container. Optimistic
// conflicts are retried up to three times per action (the standard
// client loop for detection-based concurrency control).
func NewService(c *component.Container) *Service {
	return &Service{
		container: c,
		attempts:  3,
		clock:     func() string { return "2004-11-15T10:00:00Z" },
	}
}

// SetClock overrides the timestamp source (tests use deterministic
// clocks; the default is a fixed instant so runs are reproducible).
func (s *Service) SetClock(clock func() string) { s.clock = clock }

// LoginResult is what the login page renders.
type LoginResult struct {
	UserID     string
	SessionID  string
	LoginCount int64
	Balance    float64
}

// Login signs the user in: Registry R,U + Account R (Table 1).
func (s *Service) Login(ctx context.Context, userID, sessionID string) (LoginResult, error) {
	var out LoginResult
	err := s.container.ExecuteRetry(ctx, s.attempts, func(tx *component.Tx) error {
		reg, acct := &Registry{UserID: userID}, &Account{UserID: userID}
		if err := tx.Find(reg, acct); err != nil {
			return fmt.Errorf("login %s: %w", userID, err)
		}
		reg.SessionID = sessionID
		reg.Active = true
		reg.Visits++
		if err := tx.Update(reg); err != nil {
			return err
		}
		out = LoginResult{
			UserID:     userID,
			SessionID:  sessionID,
			LoginCount: acct.LoginCount,
			Balance:    acct.Balance,
		}
		return nil
	})
	return out, err
}

// Logout signs the user off: Registry R,U (Table 1).
func (s *Service) Logout(ctx context.Context, userID string) error {
	return s.container.ExecuteRetry(ctx, s.attempts, func(tx *component.Tx) error {
		reg := &Registry{UserID: userID}
		if err := tx.Find(reg); err != nil {
			return fmt.Errorf("logout %s: %w", userID, err)
		}
		reg.Active = false
		reg.SessionID = ""
		return tx.Update(reg)
	})
}

// Register creates a new user: Account C, Profile C, Registry C
// (Table 1's multi-bean create).
func (s *Service) Register(ctx context.Context, userID, fullName, email string, openBalance float64) error {
	return s.container.ExecuteRetry(ctx, s.attempts, func(tx *component.Tx) error {
		if err := tx.Create(&Account{
			UserID:      userID,
			Balance:     openBalance,
			OpenBalance: openBalance,
		}); err != nil {
			return fmt.Errorf("register %s: %w", userID, err)
		}
		if err := tx.Create(&Profile{
			UserID:   userID,
			FullName: fullName,
			Email:    email,
			Password: "pw-" + userID,
		}); err != nil {
			return err
		}
		return tx.Create(&Registry{UserID: userID, Created: s.clock()})
	})
}

// HomeResult is what the personalized home page renders.
type HomeResult struct {
	UserID  string
	Balance float64
	Open    float64
}

// Home renders the personalized home page: Account R (Table 1).
func (s *Service) Home(ctx context.Context, userID string) (HomeResult, error) {
	var out HomeResult
	err := s.container.ExecuteRetry(ctx, s.attempts, func(tx *component.Tx) error {
		acct := &Account{UserID: userID}
		if err := tx.Find(acct); err != nil {
			return fmt.Errorf("home %s: %w", userID, err)
		}
		out = HomeResult{UserID: userID, Balance: acct.Balance, Open: acct.OpenBalance}
		return nil
	})
	return out, err
}

// AccountResult is what the account page renders.
type AccountResult struct {
	UserID   string
	FullName string
	Address  string
	Email    string
}

// Account reviews the user profile: Profile R (Table 1).
func (s *Service) Account(ctx context.Context, userID string) (AccountResult, error) {
	var out AccountResult
	err := s.container.ExecuteRetry(ctx, s.attempts, func(tx *component.Tx) error {
		p := &Profile{UserID: userID}
		if err := tx.Find(p); err != nil {
			return fmt.Errorf("account %s: %w", userID, err)
		}
		out = AccountResult{UserID: userID, FullName: p.FullName, Address: p.Address, Email: p.Email}
		return nil
	})
	return out, err
}

// AccountUpdate edits the profile: Profile R,U (Table 1).
func (s *Service) AccountUpdate(ctx context.Context, userID, newAddress, newEmail string) error {
	return s.container.ExecuteRetry(ctx, s.attempts, func(tx *component.Tx) error {
		p := &Profile{UserID: userID}
		if err := tx.Find(p); err != nil {
			return fmt.Errorf("account update %s: %w", userID, err)
		}
		p.Address = newAddress
		p.Email = newEmail
		return tx.Update(p)
	})
}

// PortfolioResult is what the portfolio page renders.
type PortfolioResult struct {
	UserID   string
	Holdings []Holding
}

// Portfolio lists the user's holdings: Holding R via the custom finder
// (Table 1).
func (s *Service) Portfolio(ctx context.Context, userID string) (PortfolioResult, error) {
	var out PortfolioResult
	err := s.container.ExecuteRetry(ctx, s.attempts, func(tx *component.Tx) error {
		out = PortfolioResult{UserID: userID}
		ents, err := tx.FindWhere(HoldingsByAccount(userID))
		if err != nil {
			return fmt.Errorf("portfolio %s: %w", userID, err)
		}
		out.Holdings = out.Holdings[:0]
		for _, e := range ents {
			h, ok := e.(*Holding)
			if !ok {
				return fmt.Errorf("portfolio %s: unexpected entity %T", userID, e)
			}
			out.Holdings = append(out.Holdings, *h)
		}
		return nil
	})
	return out, err
}

// QuoteResult is what the quote page renders.
type QuoteResult struct {
	Symbol string
	Price  float64
}

// GetQuote views one security quote: Quote R (Table 1).
func (s *Service) GetQuote(ctx context.Context, symbol string) (QuoteResult, error) {
	var out QuoteResult
	err := s.container.ExecuteRetry(ctx, s.attempts, func(tx *component.Tx) error {
		q := &Quote{Symbol: symbol}
		if err := tx.Find(q); err != nil {
			return fmt.Errorf("quote %s: %w", symbol, err)
		}
		out = QuoteResult{Symbol: symbol, Price: q.Price}
		return nil
	})
	return out, err
}

// BuyResult is what the buy confirmation renders.
type BuyResult struct {
	HoldingID string
	Symbol    string
	Quantity  float64
	Price     float64
	Total     float64
	Balance   float64
}

// Buy is "Quote followed by a security purchase": Quote R, Account R,U,
// Holding C,R (Table 1's multi-bean read/update).
func (s *Service) Buy(ctx context.Context, userID, symbol string, quantity float64) (BuyResult, error) {
	var out BuyResult
	holdingID := fmt.Sprintf("h-%s-%d", userID, s.seq.Add(1))
	err := s.container.ExecuteRetry(ctx, s.attempts, func(tx *component.Tx) error {
		q, acct := &Quote{Symbol: symbol}, &Account{UserID: userID}
		if err := tx.Find(q, acct); err != nil {
			return fmt.Errorf("buy %s for %s: %w", symbol, userID, err)
		}
		total := q.Price * quantity
		if acct.Balance < total {
			return fmt.Errorf("buy %s: insufficient funds (%.2f < %.2f)", userID, acct.Balance, total)
		}
		acct.Balance -= total
		if err := tx.Update(acct); err != nil {
			return err
		}
		h := &Holding{
			HoldingID:     holdingID,
			AccountID:     userID,
			Symbol:        symbol,
			Quantity:      quantity,
			PurchasePrice: q.Price,
			PurchaseDate:  s.clock(),
		}
		if err := tx.Create(h); err != nil {
			return err
		}
		// Holding "C, R": the confirmation page reads the new holding
		// back through the home.
		confirm := &Holding{HoldingID: holdingID}
		if err := tx.Find(confirm); err != nil {
			return fmt.Errorf("buy confirm %s: %w", holdingID, err)
		}
		out = BuyResult{
			HoldingID: confirm.HoldingID,
			Symbol:    symbol,
			Quantity:  quantity,
			Price:     q.Price,
			Total:     total,
			Balance:   acct.Balance,
		}
		return nil
	})
	return out, err
}

// SellResult is what the sell confirmation renders.
type SellResult struct {
	HoldingID string
	Symbol    string
	Quantity  float64
	Price     float64
	Proceeds  float64
	Balance   float64
	// Sold is false when the portfolio was empty and there was nothing
	// to sell; the action still ran its finder transaction.
	Sold bool
}

// Sell is "Portfolio followed by the sell of a holding": the custom
// finder (Holding R), then Quote R, Account R,U, Holding D (Table 1).
// It sells the first holding in the portfolio.
func (s *Service) Sell(ctx context.Context, userID string) (SellResult, error) {
	var out SellResult
	err := s.container.ExecuteRetry(ctx, s.attempts, func(tx *component.Tx) error {
		out = SellResult{}
		ents, err := tx.FindWhere(HoldingsByAccount(userID))
		if err != nil {
			return fmt.Errorf("sell %s: %w", userID, err)
		}
		if len(ents) == 0 {
			return nil // nothing to sell; the SLI cache commits an empty read at the edge
		}
		h, ok := ents[0].(*Holding)
		if !ok {
			return fmt.Errorf("sell %s: unexpected entity %T", userID, ents[0])
		}
		q, acct := &Quote{Symbol: h.Symbol}, &Account{UserID: userID}
		if err := tx.Find(q, acct); err != nil {
			return fmt.Errorf("sell %s for %s: %w", h.Symbol, userID, err)
		}
		proceeds := q.Price * h.Quantity
		acct.Balance += proceeds
		if err := tx.Update(acct); err != nil {
			return err
		}
		if err := tx.Remove(h); err != nil {
			return err
		}
		out = SellResult{
			HoldingID: h.HoldingID,
			Symbol:    h.Symbol,
			Quantity:  h.Quantity,
			Price:     q.Price,
			Proceeds:  proceeds,
			Balance:   acct.Balance,
			Sold:      true,
		}
		return nil
	})
	return out, err
}
