package provider

// The external test package's benchmarks build catalogs with packages that
// import this one (internal/nas), and reach these helpers through here.
var (
	ShareProvider = shareProvider
	CatalogGraphs = catalogGraphs
	StoreReq      = storeReq
	ChainGraph    = chainGraph
)

// LCPCounters returns p's provider.lcp_scanned and provider.lcp_exact.
func LCPCounters(p *Provider) (scanned, exact uint64) {
	return p.reg.Counter("provider.lcp_scanned").Load(), p.reg.Counter("provider.lcp_exact").Load()
}
