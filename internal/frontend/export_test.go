package frontend

// BuildCached exposes the cache path's build, so the identity tests can
// resume every edit from one base tree.
var BuildCached = buildCached
