package main

import (
	"fmt"
	"hash"
	"hash/fnv"
	"strconv"
	"strings"

	"edgeejb/internal/trade"
)

// stream is one client's (or the warm-up's) step source: a
// trade.Generator for the run's seed, post-processed here so that the
// system sees nothing but steps on which no operation is built to fail.
type stream struct {
	gen    *trade.Generator
	prefix string
	// edge and edges decide which users a leg drives; see rewrite.
	edge, edges int
	// bought is each user's buys less sells since the database was
	// populated, over every stream of the deployment; see rewrite.
	bought map[string]int
	hash   hash.Hash64
}

// newStream derives the generator seed from the run seed and the stream
// index (0 is the warm-up, 1+i is client i), so streams of one run
// differ and the same run seed always gives the same streams.
func newStream(w workload, seed int64, index int, prefix string, edge int, bought map[string]int) *stream {
	return &stream{
		gen: trade.NewGenerator(trade.GeneratorConfig{
			Seed: seed*1_000_003 + int64(index), Users: w.users, Symbols: w.symbols, Mix: w.mix,
		}),
		prefix: prefix,
		edge:   edge,
		edges:  w.edges,
		bought: bought,
		hash:   fnv.New64a(),
	}
}

// sessions generates the next n sessions of one leg, rewritten and
// hashed.
func (s *stream) sessions(n, leg int) [][]trade.Step {
	out := make([][]trade.Step, n)
	for i := range out {
		steps := s.gen.Session()
		for j := range steps {
			s.rewrite(&steps[j], leg)
			fmt.Fprintf(s.hash, "%+v\n", steps[j])
		}
		out[i] = steps
	}
	return out
}

// rewrite makes a generated step safe to send alongside other streams,
// so that a failed interaction means the system failed it.
//
// Every trade.Generator numbers its registrations new-1, new-2, …, so
// two streams against one database would re-register the same users
// (the whole of tradebench -throughput's "failures"); each stream
// prefixes its own. Session IDs get the prefix too, so they stay unique.
//
// With several edges a round is one leg per edge, and in leg k the
// client of edge c drives only the users congruent to c+k: every user is
// driven from every edge in turn, so each edge's commits invalidate what
// the others cached, but never from two edges at once, where three lost
// races in a row would fail an interaction by chance.
//
// Each edge's trade.Service mints holding IDs h-<user>-<n> from its own
// counter, so two edges buying for one user collide on the holding key —
// a product bug left for a later issue. An edge therefore buys only in
// its home leg; away from home a buy becomes a profile update.
//
// Every mix buys more than it sells, so portfolios would grow for as long
// as a run lasts, and every page that lists one with them: on rbes-lan
// the p95 doubled in twenty rounds, and a run that fits more rounds in
// its seconds would report a slower system. A user who already holds
// twice the populated number of holdings therefore sells where the
// generator says buy. Steps are generated in the order they are sent to a
// user, so the count kept here is the count in the database.
func (s *stream) rewrite(st *trade.Step, leg int) {
	if st.SessionID != "" {
		st.SessionID = s.prefix + st.SessionID
	}
	if st.Action == trade.ActionRegister {
		st.NewUserID = s.prefix + st.NewUserID
		st.Email = s.prefix + st.Email
	}
	if s.edges > 1 {
		if n, err := strconv.Atoi(strings.TrimPrefix(st.UserID, "uid-")); err == nil {
			st.UserID = trade.UserID(n - n%s.edges + (s.edge+leg)%s.edges)
		}
		if st.Action == trade.ActionBuy && leg != 0 {
			*st = trade.Step{
				Action: trade.ActionAccountUpdate, UserID: st.UserID,
				Address: st.Symbol + " Exchange Sq", Email: st.UserID + "@example.test",
			}
		}
	}
	switch {
	case st.Action == trade.ActionBuy && s.bought[st.UserID] >= holdingsPerUser:
		*st = trade.Step{Action: trade.ActionSell, UserID: st.UserID}
		s.bought[st.UserID]--
	case st.Action == trade.ActionBuy:
		s.bought[st.UserID]++
	case st.Action == trade.ActionSell && s.bought[st.UserID] > -holdingsPerUser:
		s.bought[st.UserID]-- // a user with nothing left sells nothing
	}
}

func (s *stream) sum() uint64 { return s.hash.Sum64() }
