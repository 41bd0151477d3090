package trade

import (
	"strings"

	"edgeejb/internal/memento"
	"edgeejb/internal/shard"
)

// ShardRing is the key→shard map of a Trade deployment with n database
// shards. The stores' seeding and the edges' routers must agree on it,
// so both build it here.
func ShardRing(n int) *shard.Ring {
	return shard.NewRing(n, shard.WithPlacement(ShardPlacement))
}

// ShardPlacement co-locates each user's working set on one shard: the
// account, profile and registry rows share the placement "user/<id>",
// and a holding is placed by the account that owns it (parsed from the
// holding ID, which both Populate and Buy mint as "h-<user>-<suffix>").
// Quotes are market-wide, not per-user, so they spread by symbol.
//
// With this placement the default Trade2 mix keeps almost every commit
// set on a single shard: login/logout, register, account update and
// sell-without-foreign-quote touch only the user's rows. The genuinely
// cross-shard cases are buys and sells whose quote read lands on
// another shard — a read-proof-only second participant — which is what
// the router's 2PC fraction measures.
func ShardPlacement(k memento.Key) string {
	switch k.Table {
	case TableAccount, TableProfile, TableRegistry:
		return "user/" + k.ID
	case TableHolding:
		if owner, ok := holdingOwner(k.ID); ok {
			return "user/" + owner
		}
		return k.Table + "/" + k.ID
	default:
		return k.Table + "/" + k.ID
	}
}

// holdingOwner extracts the owning account from a holding ID of the
// form "h-<user>-<suffix>". The user ID may itself contain dashes
// ("uid-3"), so the suffix is the final dash-separated segment.
func holdingOwner(id string) (string, bool) {
	rest, ok := strings.CutPrefix(id, "h-")
	if !ok {
		return "", false
	}
	i := strings.LastIndexByte(rest, '-')
	if i <= 0 {
		return "", false
	}
	return rest[:i], true
}

// QueryShardPlacement is the finder-affinity hook for the shard
// router: a holdings-by-account finder (an equality on accountID) is
// pinned to the owning user's placement, so the portfolio and sell
// paths probe one shard instead of scattering to all of them.
func QueryShardPlacement(q memento.Query) (string, bool) {
	if q.Table != TableHolding {
		return "", false
	}
	for _, p := range q.Where {
		if p.Field == "accountID" && p.Value.Kind == memento.KindString {
			return "user/" + p.Value.Str, true
		}
	}
	return "", false
}
