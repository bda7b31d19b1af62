// Package webgen generates the calibrated synthetic web ecosystem the
// study runs against: 404 shopping sites with the §3.2 obstacle funnel,
// 130 PII-leaking senders wired to 100 third-party receivers whose
// behaviours reproduce the paper's published aggregates (Table 1,
// Figure 2, Table 2), CNAME-cloaked Adobe deployments, the Brave shields
// list, and synthetic EasyList/EasyPrivacy filter lists (Table 4).
//
// Ground truth is derived from the paper's published numbers; the
// analysis pipeline never reads it — it must recover the numbers from the
// simulated HTTP traffic.
package webgen

import (
	"fmt"

	"piileak/internal/httpmodel"
)

// Slot is one behaviour row of a provider: Count senders leak with this
// method/encoding/parameter combination (one Table 2 row).
type Slot struct {
	// Count is the number of distinct senders using this behaviour.
	Count int
	// Methods is cycled across the slot's senders (facebook's
	// "URI/Payload" alternates).
	Methods []httpmodel.SurfaceKind
	// Chain is the encoding chain (nil = plaintext).
	Chain []string
	// Param is the PII identifier parameter (§5.1 trackid), body field
	// or cookie name.
	Param string
	// JSON emits payload leaks as JSON bodies.
	JSON bool
	// ParamPerSender appends the sender ordinal to Param, modelling
	// receivers without a *stable* identifier parameter (they fail the
	// §5.2 consistency cue).
	ParamPerSender bool
}

// Provider is one third-party receiver in the catalog.
type Provider struct {
	// Domain is the receiver's registrable domain.
	Domain string
	// Brand groups multi-domain organisations for the Figure 2
	// analysis (Google, Adobe).
	Brand string
	// Host is the tag host serving the provider's script.
	Host string
	// Persistent marks Table 2 tracking providers: their tags are
	// present on subpages and re-send the identifier there.
	Persistent bool
	// Cloaked routes the tag through a first-party CNAME subdomain.
	Cloaked bool
	// Referer marks providers that receive PII only through the
	// Referer header of GET-form senders.
	Referer bool
	// Coverage flags for §7.
	EasyPrivacy  bool
	EasyList     bool
	BraveBlocked bool
	// Slots are the provider's behaviour rows (empty for Referer
	// providers).
	Slots []Slot
}

// TotalSenders sums the slot counts.
func (p *Provider) TotalSenders() int {
	n := 0
	for _, s := range p.Slots {
		n += s.Count
	}
	return n
}

func uri() []httpmodel.SurfaceKind  { return []httpmodel.SurfaceKind{httpmodel.SurfaceURI} }
func body() []httpmodel.SurfaceKind { return []httpmodel.SurfaceKind{httpmodel.SurfaceBody} }
func uriBody() []httpmodel.SurfaceKind {
	return []httpmodel.SurfaceKind{httpmodel.SurfaceURI, httpmodel.SurfaceBody}
}

// uri3Body cycles three URI senders for every payload sender, keeping the
// payload-sender marginal near Table 1a's.
func uri3Body() []httpmodel.SurfaceKind {
	return []httpmodel.SurfaceKind{
		httpmodel.SurfaceURI, httpmodel.SurfaceURI, httpmodel.SurfaceURI, httpmodel.SurfaceBody,
	}
}
func cookie() []httpmodel.SurfaceKind { return []httpmodel.SurfaceKind{httpmodel.SurfaceCookie} }

// trackingProviders returns the paper's Table 2 rows verbatim: the 20
// persistent-tracking providers with their identifier parameters,
// methods, encodings and per-encoding sender counts.
func trackingProviders() []Provider {
	return []Provider{
		{
			Domain: "facebook.com", Host: "www.facebook.com",
			Persistent: true, EasyPrivacy: true, BraveBlocked: true,
			Slots: []Slot{
				{Count: 72, Methods: uri3Body(), Chain: []string{"sha256"}, Param: "udff[em]"},
				{Count: 2, Methods: uri(), Chain: []string{"md5"}, Param: "ud[em]"},
			},
		},
		{
			Domain: "criteo.com", Host: "sslwidget.criteo.com",
			Persistent: true, EasyPrivacy: true, BraveBlocked: true,
			Slots: []Slot{
				{Count: 26, Methods: uri(), Chain: []string{"md5"}, Param: "p0"},
				{Count: 4, Methods: uri(), Chain: []string{"sha256"}, Param: "p0"},
				{Count: 5, Methods: uri(), Chain: nil, Param: "p1"},
				{Count: 2, Methods: uri(), Chain: []string{"md5", "sha256"}, Param: "p0"},
			},
		},
		{
			Domain: "pinterest.com", Host: "ct.pinterest.com",
			Persistent: true, EasyPrivacy: true, BraveBlocked: true,
			Slots: []Slot{
				{Count: 25, Methods: uri(), Chain: []string{"sha256"}, Param: "pd"},
				{Count: 8, Methods: uri(), Chain: []string{"md5"}, Param: "pd"},
			},
		},
		{
			Domain: "snapchat.com", Host: "tr.snapchat.com",
			Persistent: true, EasyPrivacy: true, BraveBlocked: true,
			Slots: []Slot{
				{Count: 18, Methods: uri3Body(), Chain: []string{"sha256"}, Param: "u_hem"},
				{Count: 2, Methods: body(), Chain: []string{"md5"}, Param: "u_hem"},
			},
		},
		{
			Domain: "cquotient.com", Host: "cdn.cquotient.com",
			Persistent: true, EasyPrivacy: true, BraveBlocked: true,
			Slots: []Slot{{Count: 7, Methods: uri(), Chain: []string{"sha256"}, Param: "emailId"}},
		},
		{
			Domain: "bluecore.com", Host: "api.bluecore.com",
			Persistent: true, EasyPrivacy: true, BraveBlocked: true,
			Slots: []Slot{{Count: 5, Methods: body(), Chain: []string{"base64"}, Param: "data", JSON: true}},
		},
		{
			Domain: "klaviyo.com", Host: "static.klaviyo.com",
			Persistent: true, EasyPrivacy: true, BraveBlocked: true,
			Slots: []Slot{{Count: 4, Methods: uri(), Chain: []string{"base64"}, Param: "data"}},
		},
		{
			Domain: "oracleinfinity.io", Host: "dc.oracleinfinity.io",
			Persistent: true, EasyPrivacy: true, BraveBlocked: true,
			Slots: []Slot{{Count: 4, Methods: uri(), Chain: []string{"sha256"}, Param: "email_hash"}},
		},
		{
			Domain: "rlcdn.com", Host: "id.rlcdn.com",
			Persistent: true, EasyPrivacy: true, BraveBlocked: true,
			Slots: []Slot{{Count: 4, Methods: uri(), Chain: []string{"sha1"}, Param: "s"}},
		},
		{
			// The cloaked Adobe deployment: requests go to a
			// first-party subdomain CNAME'd to omtrdc.net. Three
			// senders use the URI channel (Table 2 row 10); four more
			// mint identifying first-party cookies (§4.2.1's
			// cookie-channel cases).
			Domain: "omtrdc.net", Brand: "Adobe",
			Host:       "smetrics.FIRSTPARTY", // templated per site
			Persistent: true, Cloaked: true, EasyPrivacy: true, BraveBlocked: true,
			Slots: []Slot{
				{Count: 3, Methods: uri(), Chain: []string{"sha256"}, Param: "v_em"},
				{Count: 4, Methods: cookie(), Chain: []string{"sha256"}, Param: "s_ecid"},
			},
		},
		{
			Domain: "castle.io", Host: "d2t77mnxyo7adj.castle.io",
			Persistent: true, EasyPrivacy: true, BraveBlocked: true,
			Slots: []Slot{{Count: 2, Methods: uri(), Chain: nil, Param: "up"}},
		},
		{
			// custora is one of the three providers the combined
			// blocklists miss (§7.2).
			Domain: "custora.com", Host: "c.custora.com",
			Persistent: true, EasyPrivacy: false, BraveBlocked: true,
			Slots: []Slot{
				{Count: 1, Methods: uri(), Chain: []string{"sha1"}, Param: "uid"},
				{Count: 1, Methods: cookie(), Chain: []string{"sha1"}, Param: "_custrack1_identified"},
			},
		},
		{
			Domain: "dotomi.com", Host: "apps.dotomi.com",
			Persistent: true, EasyPrivacy: true, BraveBlocked: true,
			Slots: []Slot{{Count: 2, Methods: uri(), Chain: []string{"sha256"}, Param: "dtm_email_hash"}},
		},
		{
			Domain: "inside-graph.com", Host: "cdn.inside-graph.com",
			Persistent: true, EasyPrivacy: true, BraveBlocked: true,
			Slots: []Slot{{Count: 2, Methods: body(), Chain: nil, Param: "md"}},
		},
		{
			Domain: "krxd.net", Host: "beacon.krxd.net",
			Persistent: true, EasyPrivacy: true, BraveBlocked: true,
			Slots: []Slot{{Count: 2, Methods: uri(), Chain: []string{"sha256"}, Param: "_kua_email_sha256"}},
		},
		{
			Domain: "pxf.io", Host: "events.pxf.io",
			Persistent: true, EasyPrivacy: true, BraveBlocked: true,
			Slots: []Slot{{Count: 2, Methods: body(), Chain: []string{"sha1"}, Param: "custemail"}},
		},
		{
			// taboola is missed by the combined blocklists (§7.2).
			Domain: "taboola.com", Host: "cdn.taboola.com",
			Persistent: true, EasyPrivacy: false, BraveBlocked: true,
			Slots: []Slot{{Count: 2, Methods: uri(), Chain: []string{"sha256"}, Param: "eflp"}},
		},
		{
			Domain: "thebrighttag.com", Host: "s.thebrighttag.com",
			Persistent: true, EasyPrivacy: true, BraveBlocked: true,
			Slots: []Slot{{Count: 2, Methods: uri(), Chain: []string{"sha256"}, Param: "_cb_bt_data"}},
		},
		{
			Domain: "yahoo.com", Host: "sp.analytics.yahoo.com",
			Persistent: true, EasyPrivacy: true, BraveBlocked: true,
			Slots: []Slot{{Count: 2, Methods: uri(), Chain: []string{"sha256"}, Param: "he"}},
		},
		{
			// zendesk is missed by the combined blocklists AND by
			// Brave (§7.1 footnote 4, §7.2).
			Domain: "zendesk.com", Host: "ekr.zendesk.com",
			Persistent: true, EasyPrivacy: false, BraveBlocked: false,
			Slots: []Slot{{Count: 2, Methods: uri(), Chain: []string{"base64"}, Param: "data"}},
		},
	}
}

// consistentProviders are multi-sender receivers with a stable identifier
// parameter that nevertheless fail the persistence cue: their tags are
// absent from subpages, so §5.2 does not classify them as tracking
// providers. Together with the 20 tracking providers they are the
// paper's "34 receivers that get the same ID from more than one sender".
func consistentProviders() []Provider {
	return []Provider{
		{Domain: "google-analytics.com", Brand: "Google", Host: "www.google-analytics.com",
			EasyPrivacy: true, BraveBlocked: true,
			Slots: []Slot{{Count: 30, Methods: uri(), Chain: []string{"sha256"}, Param: "em"}}},
		{Domain: "doubleclick.net", Brand: "Google", Host: "stats.g.doubleclick.net",
			EasyPrivacy: true, EasyList: true, BraveBlocked: true,
			Slots: []Slot{{Count: 18, Methods: uri(), Chain: []string{"sha256"}, Param: "em"}}},
		{Domain: "demdex.net", Brand: "Adobe", Host: "dpm.demdex.net",
			EasyPrivacy: true, BraveBlocked: true,
			Slots: []Slot{{Count: 9, Methods: uri(), Chain: []string{"sha256"}, Param: "d_em"}}},
		{Domain: "tiktok.com", Host: "analytics.tiktok.com",
			EasyPrivacy: true, BraveBlocked: true,
			Slots: []Slot{{Count: 10, Methods: uri(), Chain: []string{"sha256"}, Param: "sha_em"}}},
		{Domain: "bing.com", Brand: "Microsoft", Host: "bat.bing.com",
			EasyPrivacy: true, BraveBlocked: true,
			Slots: []Slot{{Count: 7, Methods: uri(), Chain: []string{"sha256"}, Param: "hem"}}},
		{Domain: "twitter.com", Host: "analytics.twitter.com",
			EasyPrivacy: true, BraveBlocked: true,
			Slots: []Slot{{Count: 6, Methods: uri(), Chain: []string{"sha256"}, Param: "tw_em"}}},
		{Domain: "amazon-adsystem.com", Host: "s.amazon-adsystem.com",
			EasyPrivacy: true, EasyList: true, BraveBlocked: true,
			Slots: []Slot{{Count: 5, Methods: uri(), Chain: []string{"sha256"}, Param: "ud"}}},
		{Domain: "linkedin.com", Host: "px.ads.linkedin.com",
			EasyPrivacy: true, BraveBlocked: true,
			Slots: []Slot{{Count: 4, Methods: uri(), Chain: []string{"sha256"}, Param: "li_em"}}},
		{Domain: "segment.io", Host: "api.segment.io",
			EasyPrivacy: true, BraveBlocked: true,
			Slots: []Slot{{Count: 4, Methods: body(), Chain: nil, Param: "userId", JSON: true}}},
		{Domain: "outbrain.com", Host: "amplify.outbrain.com",
			EasyPrivacy: true, EasyList: true, BraveBlocked: true,
			Slots: []Slot{{Count: 3, Methods: uri(), Chain: []string{"sha256"}, Param: "obem"}}},
		{Domain: "quantserve.com", Host: "pixel.quantserve.com",
			EasyPrivacy: true, BraveBlocked: true,
			Slots: []Slot{{Count: 2, Methods: uri(), Chain: []string{"sha256"}, Param: "qem"}}},
		{Domain: "mailchimp.com", Host: "login.mailchimp.com",
			EasyPrivacy: true, BraveBlocked: true,
			Slots: []Slot{{Count: 2, Methods: uri(), Chain: []string{"md5"}, Param: "mc_eid"}}},
		{Domain: "hubspot.com", Host: "track.hubspot.com",
			EasyPrivacy: true, BraveBlocked: true,
			Slots: []Slot{{Count: 2, Methods: uri(), Chain: []string{"md5"}, Param: "hs_em"}}},
		{Domain: "branch.io", Host: "api2.branch.io",
			EasyPrivacy: true, BraveBlocked: true,
			Slots: []Slot{{Count: 2, Methods: body(), Chain: []string{"sha256"}, Param: "identity", JSON: true}}},
	}
}

// refererProviders receive PII only through the Referer header of the
// three GET-signup-form senders (§4.2.1's accidental leakage). They have
// no identifier parameter of their own.
func refererProviders() []Provider {
	ads := []struct {
		domain, host string
		easyList     bool
		easyPrivacy  bool
	}{
		{"googlesyndication.com", "pagead2.googlesyndication.com", true, true},
		{"adnxs.com", "ib.adnxs.com", true, true},
		{"rubiconproject.com", "fastlane.rubiconproject.com", true, true},
		{"pubmatic.com", "ads.pubmatic.com", true, true},
		{"openx.net", "u.openx.net", true, true},
		{"smartadserver.com", "ww7.smartadserver.com", false, true},
		{"indexww.com", "js-sec.indexww.com", false, false},
	}
	out := make([]Provider, 0, len(ads))
	for _, a := range ads {
		out = append(out, Provider{
			Domain: a.domain, Host: a.host, Referer: true,
			EasyList: a.easyList, EasyPrivacy: a.easyPrivacy, BraveBlocked: true,
		})
	}
	return out
}

// inconsistentProvider is the one multi-sender, non-referer receiver
// whose two senders use different parameters AND different encodings, so
// the receiver never sees the same ID twice and fails §5.2's same-ID
// cue.
func inconsistentProvider() Provider {
	return Provider{
		Domain: "clarity.ms", Brand: "Microsoft", Host: "c.clarity.ms",
		EasyPrivacy: true, BraveBlocked: true,
		Slots: []Slot{
			{Count: 1, Methods: uri(), Chain: []string{"sha256"}, Param: "cl_em1"},
			{Count: 1, Methods: uri(), Chain: []string{"md5"}, Param: "cl_em2"},
		},
	}
}

// braveMissedTail are the seven single-sender receivers Brave's shields
// miss (§7.1 footnote 4; the eighth, zendesk.com, is a tracking
// provider). None of them is covered by EasyPrivacy either, matching
// their niche profile.
func braveMissedTail() []Provider {
	return []Provider{
		{Domain: "aliyun.com", Host: "log.aliyun.com", BraveBlocked: false,
			Slots: []Slot{{Count: 1, Methods: uri(), Chain: []string{"sha256"}, Param: "uid"}}},
		{Domain: "cartsync.io", Host: "sync.cartsync.io", BraveBlocked: false,
			Slots: []Slot{{Count: 1, Methods: body(), Chain: []string{"base64"}, Param: "cart_user", JSON: true}}},
		{Domain: "gravatar.com", Host: "www.gravatar.com", BraveBlocked: false,
			Slots: []Slot{{Count: 1, Methods: uri(), Chain: []string{"md5"}, Param: "avatar"}}},
		{Domain: "herokuapp.com", Host: "shopwidgets.herokuapp.com", BraveBlocked: false,
			Slots: []Slot{{Count: 1, Methods: uri(), Chain: nil, Param: "email"}}},
		{Domain: "intercom.io", Host: "api-iam.intercom.io", BraveBlocked: false,
			Slots: []Slot{{Count: 1, Methods: body(), Chain: nil, Param: "email", JSON: true}}},
		{Domain: "lmcdn.ru", Host: "st.lmcdn.ru", BraveBlocked: false,
			Slots: []Slot{{Count: 1, Methods: uri(), Chain: []string{"sha256"}, Param: "lm_em"}}},
		{Domain: "okta-emea.com", Host: "login.okta-emea.com", BraveBlocked: false,
			Slots: []Slot{{Count: 1, Methods: body(), Chain: nil, Param: "login", JSON: true}}},
	}
}

// tailProviders generates the remaining 51 single-sender receivers. The
// method/encoding mix is calibrated toward Table 1's marginals: a large
// plaintext cohort (the paper found 32.3% of senders leak plaintext),
// payload-only receivers to approach 17 payload receivers, and a few
// two-method receivers contributing to the "combined" rows.
func tailProviders() []Provider {
	var out []Provider
	add := func(i int, methods []httpmodel.SurfaceKind, chain []string, param string, json bool) {
		out = append(out, Provider{
			Domain: fmt.Sprintf("tail%02d-metrics.net", i),
			Host:   fmt.Sprintf("px.tail%02d-metrics.net", i),
			// Roughly half the long tail is on EasyPrivacy, set
			// below.
			BraveBlocked: true,
			Slots:        []Slot{{Count: 1, Methods: methods, Chain: chain, Param: param, JSON: json}},
		})
	}
	i := 0
	// 20 plaintext URI receivers.
	for ; i < 20; i++ {
		add(i, uri(), nil, "email", false)
	}
	// 12 sha256 URI receivers.
	for ; i < 32; i++ {
		add(i, uri(), []string{"sha256"}, "em_hash", false)
	}
	// 5 base64 URI receivers.
	for ; i < 37; i++ {
		add(i, uri(), []string{"base64"}, "data", false)
	}
	// 3 sha1 URI receivers.
	for ; i < 40; i++ {
		add(i, uri(), []string{"sha1"}, "h", false)
	}
	// 7 payload-only receivers (mixed encodings).
	for ; i < 47; i++ {
		chain := []string{"sha256"}
		if i%2 == 0 {
			chain = []string{"base64"}
		}
		add(i, body(), chain, "user_email", i%2 == 1)
	}
	// 4 two-method receivers (URI + payload) for the combined rows.
	for ; i < 51; i++ {
		add(i, uriBody(), []string{"sha256"}, "em", false)
	}
	// EasyPrivacy covers 27 of these 51 (calibrating total EP receiver
	// coverage toward the paper's 65).
	for j := 0; j < 27; j++ {
		out[j*2%51].EasyPrivacy = true
	}
	covered := 0
	for j := range out {
		if out[j].EasyPrivacy {
			covered++
		}
	}
	for j := range out {
		if covered >= 27 {
			break
		}
		if !out[j].EasyPrivacy {
			out[j].EasyPrivacy = true
			covered++
		}
	}
	return out
}

// Catalog returns the full receiver catalog: exactly 100 providers.
func Catalog() []Provider {
	var all []Provider
	all = append(all, trackingProviders()...)
	all = append(all, consistentProviders()...)
	all = append(all, refererProviders()...)
	all = append(all, inconsistentProvider())
	all = append(all, braveMissedTail()...)
	all = append(all, tailProviders()...)
	return all
}
