package webgen

import (
	"fmt"
	"math"
	"math/rand/v2"
	"sort"

	"piileak/internal/dnssim"
	"piileak/internal/faultsim"
	"piileak/internal/httpmodel"
	"piileak/internal/pii"
	"piileak/internal/site"
	"piileak/internal/tranco"
)

// Config parameterizes ecosystem generation. The defaults reproduce the
// paper's population (§3.2).
type Config struct {
	Seed          uint64
	TopN          int // Tranco depth (10,000)
	ShoppingSites int // candidate shopping sites (404)

	// UniverseSize extends the site population past the study core to a
	// ranked long tail of background sites (Tranco-1M scale). The first
	// len(Sites) universe indexes are the study core exactly as
	// generated; the rest are derived lazily, one independent PCG
	// stream per rank, so nothing beyond the core is ever materialized
	// up front. 0 (the default) means the universe is the core alone —
	// byte-identical to the pre-universe behaviour. A non-zero value
	// smaller than the study core is a validation error.
	UniverseSize int

	// Funnel obstacles (§3.2).
	Unreachable  int // 22
	NoAuthFlow   int // 19
	PhoneVerify  int // 47
	IDDocuments  int // 6
	RegionBlock  int // 3
	EmailConfirm int // 68
	BotDetection int // 43

	Senders int // 130 leaky first parties

	// Multi-PII sender cohorts (Table 1c).
	EmailNameSenders     int // 29
	EmailUsernameSenders int // 3

	// Table 3 policy-class counts over the senders.
	PolicyNotSpecific   int // 102
	PolicySpecific      int // 9
	PolicyNoDescription int // 15
	PolicyExplicitNot   int // 4

	// §4.2.3 mailbox volumes.
	InboxMails int // 2172
	SpamMails  int // 141

	// Faults opts the substrate into deterministic fault injection:
	// site and third-party hosts become intermittently (or permanently)
	// faulty per the seeded faultsim profile, and the crawler's
	// resilience runtime has something to fight. nil — the default, and
	// the paper's calibration — keeps every host perfectly reliable.
	Faults *faultsim.Config
}

// DefaultConfig returns the paper-calibrated configuration.
func DefaultConfig() Config {
	return Config{
		Seed:          2021,
		TopN:          10000,
		ShoppingSites: 404,
		Unreachable:   22,
		NoAuthFlow:    19,
		PhoneVerify:   47,
		IDDocuments:   6,
		RegionBlock:   3,
		EmailConfirm:  68,
		BotDetection:  43,
		Senders:       130,

		EmailNameSenders:     29,
		EmailUsernameSenders: 3,

		PolicyNotSpecific:   102,
		PolicySpecific:      9,
		PolicyNoDescription: 15,
		PolicyExplicitNot:   4,

		InboxMails: 2172,
		SpamMails:  141,
	}
}

// SmallConfig returns a reduced ecosystem for fast tests and examples:
// the funnel, cohorts and mail volumes are scaled down but every
// mechanism (cloaking, referer leaks, all methods) stays exercised.
func SmallConfig(seed uint64) Config {
	return Config{
		Seed:          seed,
		TopN:          600,
		ShoppingSites: 60,
		Unreachable:   3,
		NoAuthFlow:    2,
		PhoneVerify:   5,
		IDDocuments:   1,
		RegionBlock:   1,
		EmailConfirm:  8,
		BotDetection:  5,
		Senders:       30,

		EmailNameSenders:     6,
		EmailUsernameSenders: 2,

		PolicyNotSpecific:   23,
		PolicySpecific:      2,
		PolicyNoDescription: 3,
		PolicyExplicitNot:   2,

		InboxMails: 210,
		SpamMails:  15,
	}
}

// Edge is one (sender, receiver) leak relationship with its behaviour.
type Edge struct {
	Sender   int // index into Ecosystem.SenderSites
	Provider int // index into Ecosystem.Providers
	Method   httpmodel.SurfaceKind
	Param    string
	Chain    []string
	PII      []pii.Type
	JSON     bool
}

// Ecosystem is the generated synthetic web.
type Ecosystem struct {
	Config    Config
	Persona   pii.Persona
	List      *tranco.List
	Providers []Provider

	// Sites are the candidate shopping sites, including obstacle
	// sites.
	Sites []*site.Site
	// Crawlable are the sites the §3.2 flow completes on (307 at
	// default config).
	Crawlable []*site.Site
	// SenderSites are the leaky first parties in sender-index order;
	// the first three are the GET-form (referer-leak) senders and the
	// last is the username-only sender.
	SenderSites []*site.Site
	// Edges is the calibrated leak graph (excludes referer leakage,
	// which emerges from the GET forms).
	Edges []Edge
	// Zone holds the CNAME records for cloaked tags.
	Zone *dnssim.Zone
	// EasyListText and EasyPrivacyText are the generated filter lists.
	EasyListText    string
	EasyPrivacyText string
	// BraveShields is the set of receiver registrable domains Brave's
	// shields block.
	BraveShields map[string]bool
	// Faults is the compiled fault injector when Config.Faults is set;
	// nil for the stock, perfectly-reliable substrate.
	Faults *faultsim.Injector
}

const refererSenders = 3 // GET-signup senders (indices 0..2)

// heroSender is the sender index engineered to reach the paper's
// maximum receiver count (the loccitane.com analog).
const heroSender = refererSenders

// Generate builds the ecosystem for a config.
func Generate(cfg Config) (*Ecosystem, error) {
	if err := validate(cfg); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewPCG(cfg.Seed, 0x5049494c)) // "PIIL"

	eco := &Ecosystem{
		Config:    cfg,
		Persona:   pii.Default(),
		List:      tranco.Generate(cfg.Seed, cfg.TopN, cfg.ShoppingSites),
		Providers: Catalog(),
		Zone:      dnssim.NewZone(),
	}
	if cfg.Senders != DefaultConfig().Senders {
		scaleCatalog(eco, cfg.Senders)
	}

	eco.buildSites(rng)
	eco.assignEdges(rng)
	eco.markCaptchaSite()
	eco.markMultiPII(rng)
	eco.buildTags(rng)
	eco.assignPolicies(rng)
	eco.assignMail(rng)
	eco.buildBlocklists()
	if cfg.Faults != nil {
		fc := *cfg.Faults
		if fc.Seed == 0 {
			fc.Seed = cfg.Seed // faults follow the ecosystem seed by default
		}
		eco.Faults = faultsim.New(fc)
	}
	return eco, nil
}

// MustGenerate panics on configuration errors.
func MustGenerate(cfg Config) *Ecosystem {
	eco, err := Generate(cfg)
	if err != nil {
		panic(err)
	}
	return eco
}

// scaleCatalog shrinks slot counts proportionally for non-default sender
// populations, keeping at least one sender per provider so every
// mechanism still appears.
func scaleCatalog(eco *Ecosystem, senders int) {
	f := float64(senders) / float64(DefaultConfig().Senders)
	for i := range eco.Providers {
		for j := range eco.Providers[i].Slots {
			c := int(float64(eco.Providers[i].Slots[j].Count)*f + 0.5)
			if c < 1 {
				c = 1
			}
			eco.Providers[i].Slots[j].Count = c
		}
	}
}

func validate(cfg Config) error {
	obstacles := cfg.Unreachable + cfg.NoAuthFlow + cfg.PhoneVerify + cfg.IDDocuments + cfg.RegionBlock
	crawlable := cfg.ShoppingSites - obstacles
	if crawlable <= 0 {
		return fmt.Errorf("webgen: obstacles (%d) consume all %d sites", obstacles, cfg.ShoppingSites)
	}
	if cfg.Senders > crawlable {
		return fmt.Errorf("webgen: %d senders exceed %d crawlable sites", cfg.Senders, crawlable)
	}
	if cfg.Senders < refererSenders+2 {
		return fmt.Errorf("webgen: need at least %d senders", refererSenders+2)
	}
	if p := cfg.PolicyNotSpecific + cfg.PolicySpecific + cfg.PolicyNoDescription + cfg.PolicyExplicitNot; p != cfg.Senders {
		return fmt.Errorf("webgen: policy classes sum to %d, want %d", p, cfg.Senders)
	}
	if cfg.UniverseSize < 0 {
		return fmt.Errorf("webgen: negative UniverseSize %d", cfg.UniverseSize)
	}
	if cfg.UniverseSize > 0 && cfg.UniverseSize < cfg.ShoppingSites {
		return fmt.Errorf("webgen: UniverseSize %d is smaller than the %d-site study core", cfg.UniverseSize, cfg.ShoppingSites)
	}
	return nil
}

// buildSites creates the candidate sites, assigns funnel obstacles,
// email confirmation, bot detection, and picks the senders.
func (e *Ecosystem) buildSites(rng *rand.Rand) {
	cfg := e.Config
	entries := e.List.Shopping()
	e.Sites = make([]*site.Site, len(entries))
	for i, entry := range entries {
		e.Sites[i] = &site.Site{
			Domain:      entry.Domain,
			Rank:        entry.Rank,
			Collected:   collectedFor(i),
			FieldNaming: namingFor(i),
		}
	}

	// Obstacles on a deterministic shuffle.
	perm := rng.Perm(len(e.Sites))
	idx := 0
	take := func(n int, obstacle site.Obstacle) {
		for i := 0; i < n; i++ {
			e.Sites[perm[idx]].Obstacle = obstacle
			idx++
		}
	}
	take(cfg.Unreachable, site.ObstacleUnreachable)
	take(cfg.NoAuthFlow, site.ObstacleNoAuth)
	take(cfg.PhoneVerify, site.ObstaclePhoneVerify)
	take(cfg.IDDocuments, site.ObstacleIDDocuments)
	take(cfg.RegionBlock, site.ObstacleRegionBlock)

	for _, s := range e.Sites {
		if s.Obstacle == site.ObstacleNone {
			e.Crawlable = append(e.Crawlable, s)
		}
	}

	// Email confirmation and bot detection among the crawlable sites.
	cperm := rng.Perm(len(e.Crawlable))
	for i := 0; i < cfg.EmailConfirm && i < len(cperm); i++ {
		e.Crawlable[cperm[i]].EmailConfirm = true
	}
	cperm = rng.Perm(len(e.Crawlable))
	for i := 0; i < cfg.BotDetection && i < len(cperm); i++ {
		e.Crawlable[cperm[i]].BotDetection = true
	}

	// Senders: a deterministic subset of the crawlable sites; first
	// three are the GET-form referer leakers.
	sperm := rng.Perm(len(e.Crawlable))
	e.SenderSites = make([]*site.Site, cfg.Senders)
	for i := 0; i < cfg.Senders; i++ {
		e.SenderSites[i] = e.Crawlable[sperm[i]]
	}
	for i := 0; i < refererSenders; i++ {
		e.SenderSites[i].SignupGET = true
		// Referer leaks need field names a reader recognizes in the
		// URL; the badly-coded GET sites use the plain scheme.
		e.SenderSites[i].FieldNaming = 0
	}

}

// namingFor assigns form-input naming schemes: roughly one in ten
// sites uses exotic, heuristic-defeating names (experiment X4), the
// rest cycle through the conventional schemes.
func namingFor(i int) int {
	if i%10 == 7 {
		return 3
	}
	return i % 3
}

// collectedFor varies the signup-form PII fields per site.
func collectedFor(i int) []pii.Type {
	base := []pii.Type{pii.TypeEmail, pii.TypeName}
	switch i % 4 {
	case 0:
		return append(base, pii.TypeGender, pii.TypeDOB)
	case 1:
		return append(base, pii.TypeUsername, pii.TypePhone)
	case 2:
		return append(base, pii.TypeAddress)
	default:
		return append(base, pii.TypeJob, pii.TypeGender)
	}
}

// usernameOnlySender returns the index of the sender that leaks only a
// username (Table 1c's single "username" row).
func (e *Ecosystem) usernameOnlySender() int { return len(e.SenderSites) - 1 }

// markCaptchaSite designates the one sender whose CAPTCHA flow breaks
// under Brave shields (§7.1, the nykaa.com case). The site must not be
// a Brave survivor, or the §7.1 surviving-sender count would drift when
// its whole crawl aborts.
func (e *Ecosystem) markCaptchaSite() {
	survivors := map[int]bool{}
	for _, ed := range e.Edges {
		if !e.Providers[ed.Provider].BraveBlocked {
			survivors[ed.Sender] = true
		}
	}
	// Prefer an existing bot-detection sender.
	for i := refererSenders; i < len(e.SenderSites); i++ {
		s := e.SenderSites[i]
		if s.BotDetection && !survivors[i] {
			s.CaptchaBreaksUnderShields = true
			return
		}
	}
	// Otherwise move the bot-detection flag from a non-sender site to
	// a non-surviving sender, keeping the §3.2 count intact.
	senderSet := map[*site.Site]bool{}
	for _, s := range e.SenderSites {
		senderSet[s] = true
	}
	var donor *site.Site
	for _, s := range e.Crawlable {
		if s.BotDetection && !senderSet[s] {
			donor = s
			break
		}
	}
	for i := refererSenders; i < len(e.SenderSites); i++ {
		s := e.SenderSites[i]
		if !survivors[i] {
			if donor != nil {
				donor.BotDetection = false
			}
			s.BotDetection = true
			s.CaptchaBreaksUnderShields = true
			return
		}
	}
}

// assignEdges distributes provider slots over eligible senders with
// heavy-tailed weights, reproducing the paper's receiver-count
// distribution (mean ≈ 3 receivers/sender, a hero sender at the maximum,
// ~46% of senders with ≥3 receivers).
func (e *Ecosystem) assignEdges(rng *rand.Rand) {
	nSenders := len(e.SenderSites)
	usernameOnly := e.usernameOnlySender()

	eligible := func(i int) bool { return i >= refererSenders && i != usernameOnly }

	// Heavy-tailed weights over eligible senders.
	weight := make([]float64, nSenders)
	for i := range weight {
		if !eligible(i) {
			continue
		}
		rank := float64(i-refererSenders) + 1
		weight[i] = 1.0 / math.Pow(rank, 0.80)
	}
	var totalWeight float64
	for _, w := range weight {
		totalWeight += w
	}
	// provCount tracks distinct providers per sender so no sender can
	// exceed the hero's paper-exact maximum.
	provCount := make([]int, nSenders)
	// The hero's 16 pre-assigned providers already exceed the cap, so
	// it receives nothing further and stays the unique maximum.
	const maxProvidersPerSender = 15
	capped := func(i int) bool { return provCount[i] >= maxProvidersPerSender }
	sampleWeighted := func(excluded map[int]bool) int {
		for {
			x := rng.Float64() * totalWeight
			for i, w := range weight {
				if w == 0 {
					continue
				}
				x -= w
				if x <= 0 {
					if !excluded[i] && !capped(i) {
						return i
					}
					break
				}
			}
		}
	}
	// The payload pool concentrates payload-channel leaks on senders
	// with few other edges, keeping the multi-method ("combined")
	// sender cohort near the paper's.
	poolStart := refererSenders + (nSenders-refererSenders)*6/10
	samplePool := func(excluded map[int]bool) int {
		for tries := 0; tries < 10*nSenders; tries++ {
			i := poolStart + rng.IntN(usernameOnly-poolStart)
			if !excluded[i] && !capped(i) {
				return i
			}
		}
		return sampleWeighted(excluded)
	}

	// Hero pre-assignment: one edge from each of the largest providers.
	type provIdx struct{ idx, total int }
	var order []provIdx
	for i := range e.Providers {
		if t := e.Providers[i].TotalSenders(); t > 0 {
			order = append(order, provIdx{i, t})
		}
	}
	sort.Slice(order, func(a, b int) bool {
		if order[a].total != order[b].total {
			return order[a].total > order[b].total
		}
		return order[a].idx < order[b].idx
	})
	heroProviders := 16
	if heroProviders > len(order) {
		heroProviders = len(order)
	}
	if nSenders < 40 {
		heroProviders = 6 // scaled-down ecosystems
	}

	linked := make([]map[int]bool, len(e.Providers)) // provider -> sender set
	for i := range linked {
		linked[i] = make(map[int]bool)
	}
	slotUsed := make([][]int, len(e.Providers)) // per-slot assignment counts
	for i := range slotUsed {
		slotUsed[i] = make([]int, len(e.Providers[i].Slots))
	}

	addEdge := func(prov, slot, sender, posInSlot int) {
		p := &e.Providers[prov]
		s := p.Slots[slot]
		method := s.Methods[posInSlot%len(s.Methods)]
		param := s.Param
		if s.ParamPerSender {
			param = fmt.Sprintf("%s%d", s.Param, posInSlot+1)
		}
		e.Edges = append(e.Edges, Edge{
			Sender:   sender,
			Provider: prov,
			Method:   method,
			Param:    param,
			Chain:    s.Chain,
			PII:      []pii.Type{pii.TypeEmail},
			JSON:     s.JSON,
		})
		if !linked[prov][sender] {
			provCount[sender]++
		}
		linked[prov][sender] = true
	}

	for k := 0; k < heroProviders; k++ {
		prov := order[k].idx
		addEdge(prov, 0, heroSender, slotUsed[prov][0])
		slotUsed[prov][0]++
	}

	// Brave-survivor providers must land on pairwise-distinct senders
	// so the §7.1 survivor count is exact.
	survivors := map[int]bool{heroSender: true}
	survivorProvider := make([]bool, len(e.Providers))
	for i := range e.Providers {
		if !e.Providers[i].BraveBlocked {
			survivorProvider[i] = true
		}
	}

	// Main pass: fill every slot.
	for prov := range e.Providers {
		p := &e.Providers[prov]
		for slot := range p.Slots {
			s := p.Slots[slot]
			isSingle := p.TotalSenders() == 1
			for slotUsed[prov][slot] < s.Count {
				pos := slotUsed[prov][slot]
				method := s.Methods[pos%len(s.Methods)]
				excluded := linked[prov]
				var sender int
				switch {
				case survivorProvider[prov]:
					// Uniform over eligible senders not already
					// surviving.
					for {
						sender = refererSenders + rng.IntN(usernameOnly-refererSenders)
						if !excluded[sender] && !survivors[sender] && !capped(sender) {
							break
						}
					}
					survivors[sender] = true
				case isSingle:
					// The long tail spreads uniformly.
					for {
						sender = refererSenders + rng.IntN(usernameOnly-refererSenders)
						if !excluded[sender] && !capped(sender) {
							break
						}
					}
				case method == httpmodel.SurfaceBody:
					sender = samplePool(excluded)
				default:
					sender = sampleWeighted(excluded)
				}
				addEdge(prov, slot, sender, pos)
				slotUsed[prov][slot]++
			}
		}
	}

	// Username-only sender: rewrite the last single-sender tail edge
	// to carry only a username.
	for i := len(e.Edges) - 1; i >= 0; i-- {
		prov := &e.Providers[e.Edges[i].Provider]
		if prov.TotalSenders() == 1 && !survivorProvider[e.Edges[i].Provider] && prov.Slots[0].Chain == nil {
			e.Edges[i].Sender = usernameOnly
			e.Edges[i].PII = []pii.Type{pii.TypeUsername}
			ensureCollected(e.SenderSites[usernameOnly], pii.TypeUsername)
			break
		}
	}

	// Zero-edge protection: every non-referer sender must leak.
	edgeCount := make([]int, nSenders)
	for _, ed := range e.Edges {
		edgeCount[ed.Sender]++
	}
	for z := refererSenders; z < nSenders; z++ {
		if edgeCount[z] > 0 {
			continue
		}
		// Steal an edge from the most-loaded sender, from a provider
		// not yet linked to z and not survivor-critical.
		best, bestIdx := -1, -1
		for i, ed := range e.Edges {
			if survivorProvider[ed.Provider] || ed.Sender == heroSender || ed.Sender == z {
				continue
			}
			if linked[ed.Provider][z] {
				continue
			}
			if edgeCount[ed.Sender] > best && edgeCount[ed.Sender] > 1 {
				best, bestIdx = edgeCount[ed.Sender], i
			}
		}
		if bestIdx < 0 {
			continue
		}
		old := e.Edges[bestIdx].Sender
		delete(linked[e.Edges[bestIdx].Provider], old)
		linked[e.Edges[bestIdx].Provider][z] = true
		e.Edges[bestIdx].Sender = z
		edgeCount[old]--
		edgeCount[z]++
	}
}

// markMultiPII designates the email+name and email+username sender
// cohorts (Table 1c) and widens the PII of selected edges.
func (e *Ecosystem) markMultiPII(rng *rand.Rand) {
	cfg := e.Config

	// Name-capable providers: the large "consistent" receivers.
	nameCapable := map[string]bool{
		"google-analytics.com": true, "doubleclick.net": true,
		"tiktok.com": true, "demdex.net": true, "bing.com": true,
		"twitter.com": true, "linkedin.com": true, "quantserve.com": true,
		"hubspot.com": true, "amazon-adsystem.com": true,
		"outbrain.com": true, "mailchimp.com": true,
	}
	usernameCapable := map[string]bool{
		"google-analytics.com": true, "doubleclick.net": true,
		"tiktok.com": true, "demdex.net": true, "bing.com": true,
		"twitter.com": true,
	}

	// Edges per sender to capable providers.
	nameEdges := map[int][]int{}
	userEdges := map[int][]int{}
	for i, ed := range e.Edges {
		d := e.Providers[ed.Provider].Domain
		if nameCapable[d] {
			nameEdges[ed.Sender] = append(nameEdges[ed.Sender], i)
		}
		if usernameCapable[d] {
			userEdges[ed.Sender] = append(userEdges[ed.Sender], i)
		}
	}

	// Email+username cohort first (kept disjoint from email+name):
	// each marked sender widens two of its capable edges.
	userMarked := map[int]bool{}
	senders := sortedKeys(userEdges)
	for _, s := range senders {
		if len(userMarked) >= cfg.EmailUsernameSenders {
			break
		}
		if len(userEdges[s]) < 2 || s == heroSender {
			continue
		}
		userMarked[s] = true
		for _, ei := range userEdges[s][:2] {
			e.Edges[ei].PII = append(e.Edges[ei].PII, pii.TypeUsername)
		}
		ensureCollected(e.SenderSites[s], pii.TypeUsername)
	}

	// Email+name cohort: first pass gives each name-capable provider
	// one marked edge (spreading the receiver-side count), then fill
	// until the cohort is complete.
	nameMarked := map[int]bool{}
	markEdge := func(ei int) {
		s := e.Edges[ei].Sender
		if userMarked[s] || nameMarked[s] {
			return
		}
		nameMarked[s] = true
		e.Edges[ei].PII = append(e.Edges[ei].PII, pii.TypeName)
	}
	providerFirstEdge := map[int][]int{}
	for i, ed := range e.Edges {
		if nameCapable[e.Providers[ed.Provider].Domain] {
			providerFirstEdge[ed.Provider] = append(providerFirstEdge[ed.Provider], i)
		}
	}
	for _, prov := range sortedKeys(providerFirstEdge) {
		if len(nameMarked) >= cfg.EmailNameSenders {
			break
		}
		for _, ei := range providerFirstEdge[prov] {
			s := e.Edges[ei].Sender
			if !userMarked[s] && !nameMarked[s] {
				markEdge(ei)
				break
			}
		}
	}
	for _, s := range sortedKeys(nameEdges) {
		if len(nameMarked) >= cfg.EmailNameSenders {
			break
		}
		if userMarked[s] || nameMarked[s] {
			continue
		}
		markEdge(nameEdges[s][0])
	}
	_ = rng
}

func sortedKeys(m map[int][]int) []int {
	keys := make([]int, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	return keys
}

func ensureCollected(s *site.Site, t pii.Type) {
	for _, c := range s.Collected {
		if c == t {
			return
		}
	}
	s.Collected = append(s.Collected, t)
}

// refererTagSets returns, per GET-form sender, the indices (into the
// referer-provider group) of the ad tags it embeds. The overlap keeps
// every referer receiver multi-sender.
func refererTagSets() [][]int {
	return [][]int{
		{0, 1, 2, 3, 4, 5, 6},
		{0, 1, 2, 5, 6},
		// The third GET sender embeds only EasyList-covered exchanges,
		// making it the single sender EasyList alone fully covers
		// (Table 4's 1/0.8%).
		{0, 1, 3, 4},
	}
}

// buildTags converts edges into per-site tags, wires cloaked CNAMEs, and
// adds benign tags everywhere.
func (e *Ecosystem) buildTags(rng *rand.Rand) {
	// Group edges by (sender, provider).
	type key struct{ sender, prov int }
	group := map[key][]Edge{}
	for _, ed := range e.Edges {
		k := key{ed.Sender, ed.Provider}
		group[k] = append(group[k], ed)
	}

	var refProviders []int
	for i := range e.Providers {
		if e.Providers[i].Referer {
			refProviders = append(refProviders, i)
		}
	}

	// Leak tags.
	keys := make([]key, 0, len(group))
	for k := range group {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(a, b int) bool {
		if keys[a].sender != keys[b].sender {
			return keys[a].sender < keys[b].sender
		}
		return keys[a].prov < keys[b].prov
	})
	for _, k := range keys {
		s := e.SenderSites[k.sender]
		p := &e.Providers[k.prov]
		tag := site.Tag{
			Receiver:   p.Domain,
			Host:       p.Host,
			Path:       providerPath(p),
			Type:       httpmodel.TypeScript,
			OnSubpages: p.Persistent,
		}
		if p.Cloaked {
			tag.Host = "smetrics." + s.Domain
			slug := sanitizeSlug(s.Domain)
			e.Zone.AddCNAME(tag.Host, slug+".sc.omtrdc.net")
			if s.CNAMEs == nil {
				s.CNAMEs = map[string]string{}
			}
			s.CNAMEs[tag.Host] = slug + ".sc.omtrdc.net"
		}
		for _, ed := range group[k] {
			tag.Actions = append(tag.Actions, site.LeakAction{
				Method:   ed.Method,
				Param:    ed.Param,
				Chain:    ed.Chain,
				PII:      ed.PII,
				JSONBody: ed.JSON,
			})
		}
		s.Tags = append(s.Tags, tag.WithURL())
	}

	// Referer senders: ad tags with no actions; the GET form leaks.
	for i, set := range refererTagSets() {
		if i >= len(e.SenderSites) {
			break
		}
		s := e.SenderSites[i]
		for _, j := range set {
			if j >= len(refProviders) {
				continue
			}
			p := &e.Providers[refProviders[j]]
			s.Tags = append(s.Tags, site.Tag{
				Receiver: p.Domain,
				Host:     p.Host,
				Path:     providerPath(p),
				Type:     httpmodel.TypeScript,
			}.WithURL())
		}
	}

	// Benign tags on every crawlable site, plus an actionless facebook
	// pixel on a third of the non-senders (realism: embedding a
	// tracker is not leaking).
	senderSet := map[*site.Site]bool{}
	for _, s := range e.SenderSites {
		senderSet[s] = true
	}
	for i, s := range e.Crawlable {
		if s.SignupGET {
			// GET-form sites load only their ad tags: any extra third
			// party on the signup-result page would receive the
			// accidental referer leak and distort the §4.2.1
			// referer-receiver count.
			continue
		}
		s.Tags = append(s.Tags, benignCDNTag(), benignFontTag())
		if !senderSet[s] && i%3 == 0 {
			s.Tags = append(s.Tags, facebookPixelTag())
		}
	}
	_ = rng
}

func providerPath(p *Provider) string {
	if p.Cloaked {
		return "/b/ss/s_code.js"
	}
	switch p.Domain {
	case "facebook.com":
		return "/en_US/fbevents.js"
	case "google-analytics.com":
		return "/analytics.js"
	case "criteo.com":
		return "/js/ld/ld.js"
	default:
		return "/" + sanitizeSlug(p.Domain) + "/tag.js"
	}
}

func sanitizeSlug(domain string) string {
	out := make([]rune, 0, len(domain))
	for _, r := range domain {
		if r == '.' || r == '-' {
			continue
		}
		out = append(out, r)
	}
	return string(out)
}

// assignPolicies distributes the Table 3 disclosure classes over the
// senders; non-senders default to "not specific".
func (e *Ecosystem) assignPolicies(rng *rand.Rand) {
	cfg := e.Config
	classes := make([]site.PolicyClass, 0, cfg.Senders)
	addN := func(n int, c site.PolicyClass) {
		for i := 0; i < n; i++ {
			classes = append(classes, c)
		}
	}
	addN(cfg.PolicyNotSpecific, site.PolicyNotSpecific)
	addN(cfg.PolicySpecific, site.PolicySpecific)
	addN(cfg.PolicyNoDescription, site.PolicyNoDescription)
	addN(cfg.PolicyExplicitNot, site.PolicyExplicitlyNot)
	perm := rng.Perm(len(classes))
	for i, s := range e.SenderSites {
		s.Policy = classes[perm[i]]
	}
	for _, s := range e.Sites {
		if s.Policy == "" {
			s.Policy = site.PolicyNotSpecific
		}
	}
}

// assignMail spreads the §4.2.3 marketing-mail volumes over the
// crawlable (signed-up) sites.
func (e *Ecosystem) assignMail(rng *rand.Rand) {
	cfg := e.Config
	n := len(e.Crawlable)
	if n == 0 {
		return
	}
	base := cfg.InboxMails / n
	extra := cfg.InboxMails % n
	perm := rng.Perm(n)
	for _, s := range e.Crawlable {
		s.MarketingMails = base
	}
	for i := 0; i < extra; i++ {
		e.Crawlable[perm[i]].MarketingMails++
	}
	// Spam: three mails from each of SpamMails/3 sites (plus remainder
	// on one site).
	spamSites := cfg.SpamMails / 3
	perm = rng.Perm(n)
	for i := 0; i < spamSites && i < n; i++ {
		e.Crawlable[perm[i]].SpamMails = 3
	}
	if rem := cfg.SpamMails % 3; rem > 0 && spamSites < n {
		e.Crawlable[perm[spamSites]].SpamMails = rem
	}
}
