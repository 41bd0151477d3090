package trade

import (
	"math"
	"testing"

	"edgeejb/internal/sqlstore"
)

func TestActionStringRoundTrip(t *testing.T) {
	for _, a := range Actions {
		got, err := ParseAction(a.String())
		if err != nil {
			t.Errorf("ParseAction(%q): %v", a.String(), err)
			continue
		}
		if got != a {
			t.Errorf("round trip %v -> %v", a, got)
		}
	}
	if _, err := ParseAction("bogus"); err == nil {
		t.Error("ParseAction accepted bogus action")
	}
}

func TestTable1Metadata(t *testing.T) {
	// Every action carries its Table 1 row.
	for _, a := range Actions {
		if a.CMPOperation() == "" {
			t.Errorf("%v missing CMP operation", a)
		}
		if a.DBActivity() == "" {
			t.Errorf("%v missing DB activity", a)
		}
	}
	// Spot-check against the paper's Table 1.
	if got := ActionBuy.DBActivity(); got != "Quote R; Account R,U; Holding C,R" {
		t.Errorf("buy DB activity = %q", got)
	}
	if got := ActionRegister.CMPOperation(); got != "Multi-Bean Create" {
		t.Errorf("register CMP = %q", got)
	}
}

func TestSessionShape(t *testing.T) {
	g := NewGenerator(GeneratorConfig{Seed: 1, Users: 10, Symbols: 10})
	for i := 0; i < 50; i++ {
		steps := g.Session()
		if len(steps) < 3 {
			t.Fatalf("session too short: %d steps", len(steps))
		}
		if steps[0].Action != ActionLogin {
			t.Fatalf("session does not start with login: %v", steps[0].Action)
		}
		if steps[len(steps)-1].Action != ActionLogout {
			t.Fatalf("session does not end with logout")
		}
		user := steps[0].UserID
		for _, s := range steps {
			if s.UserID != user {
				t.Fatalf("session switched users: %s vs %s", s.UserID, user)
			}
			if s.Action == ActionLogin && s.SessionID == "" {
				t.Fatal("login without session id")
			}
		}
	}
}

func TestSessionLengthMean(t *testing.T) {
	g := NewGenerator(GeneratorConfig{Seed: 7, Users: 10, Symbols: 10, ActionsPerSession: 11})
	const sessions = 2000
	total := 0
	for i := 0; i < sessions; i++ {
		total += len(g.Session())
	}
	mean := float64(total) / sessions
	// "a single session consists of about 11 individual trade actions".
	if math.Abs(mean-11) > 1.5 {
		t.Errorf("mean session length = %.2f, want about 11", mean)
	}
}

func TestGeneratorDeterminism(t *testing.T) {
	g1 := NewGenerator(GeneratorConfig{Seed: 42, Users: 10, Symbols: 10})
	g2 := NewGenerator(GeneratorConfig{Seed: 42, Users: 10, Symbols: 10})
	for i := 0; i < 20; i++ {
		s1, s2 := g1.Session(), g2.Session()
		if len(s1) != len(s2) {
			t.Fatalf("session %d lengths differ", i)
		}
		for j := range s1 {
			if s1[j] != s2[j] {
				t.Fatalf("session %d step %d differ: %+v vs %+v", i, j, s1[j], s2[j])
			}
		}
	}
}

func TestMixWeightsRespected(t *testing.T) {
	// An all-quotes mix must generate only quote actions mid-session.
	g := NewGenerator(GeneratorConfig{
		Seed: 3, Users: 5, Symbols: 5,
		Mix: Mix{Quote: 1},
	})
	for i := 0; i < 20; i++ {
		steps := g.Session()
		for _, s := range steps[1 : len(steps)-1] {
			if s.Action != ActionQuote {
				t.Fatalf("unexpected action %v under quote-only mix", s.Action)
			}
		}
	}
}

func TestRegisterStepsUseFreshUserIDs(t *testing.T) {
	g := NewGenerator(GeneratorConfig{
		Seed: 5, Users: 5, Symbols: 5,
		Mix: Mix{Register: 1},
	})
	seen := make(map[string]bool)
	for i := 0; i < 10; i++ {
		for _, s := range g.Session() {
			if s.Action != ActionRegister {
				continue
			}
			if s.NewUserID == "" {
				t.Fatal("register step without new user id")
			}
			if seen[s.NewUserID] {
				t.Fatalf("duplicate new user id %s", s.NewUserID)
			}
			seen[s.NewUserID] = true
		}
	}
	if len(seen) == 0 {
		t.Fatal("register-only mix generated no registers")
	}
}

func TestPopulateCounts(t *testing.T) {
	store := sqlstore.New()
	defer store.Close()
	Populate(store, PopulateConfig{Users: 7, Symbols: 13, HoldingsPerUser: 3})
	if got := store.RowCount(TableAccount); got != 7 {
		t.Errorf("accounts = %d, want 7", got)
	}
	if got := store.RowCount(TableProfile); got != 7 {
		t.Errorf("profiles = %d, want 7", got)
	}
	if got := store.RowCount(TableRegistry); got != 7 {
		t.Errorf("registries = %d, want 7", got)
	}
	if got := store.RowCount(TableQuote); got != 13 {
		t.Errorf("quotes = %d, want 13", got)
	}
	if got := store.RowCount(TableHolding); got != 21 {
		t.Errorf("holdings = %d, want 21", got)
	}
}

func TestPopulateDefaultsApplied(t *testing.T) {
	store := sqlstore.New()
	defer store.Close()
	Populate(store, PopulateConfig{})
	def := DefaultPopulate()
	if got := store.RowCount(TableAccount); got != def.Users {
		t.Errorf("default users = %d, want %d", got, def.Users)
	}
	if got := store.RowCount(TableQuote); got != def.Symbols {
		t.Errorf("default symbols = %d, want %d", got, def.Symbols)
	}
}
