package features

// webAPIKeywords enumerates JavaScript Web API names treated as "keywords"
// by the keyword feature set. The list covers the DOM, BOM, timing, storage,
// and string/number built-ins that anti-adblock baits exercise: element
// geometry probes (offsetHeight, clientWidth, …), script injection
// (createElement, setAttribute, appendChild), cookies, and event hooks —
// the API surface visible in Codes 4 and 5 of the paper.
var webAPIKeywords = map[string]bool{
	// Document / element access.
	"document": true, "window": true, "navigator": true, "screen": true,
	"location": true, "history": true, "body": true, "head": true,
	"documentElement": true, "getElementById": true,
	"getElementsByTagName": true, "getElementsByClassName": true,
	"querySelector": true, "querySelectorAll": true, "createElement": true,
	"createTextNode": true, "createEvent": true, "dispatchEvent": true,
	"write": true, "writeln": true, "title": true, "referrer": true,
	"domain": true, "URL": true, "origin": true, "readyState": true,
	"onreadystatechange": true, "currentScript": true,

	// Element tree and attributes.
	"appendChild": true, "removeChild": true, "insertBefore": true,
	"replaceChild": true, "cloneNode": true, "parentNode": true,
	"parentElement": true, "childNodes": true, "children": true,
	"firstChild": true, "lastChild": true, "nextSibling": true,
	"previousSibling": true, "setAttribute": true, "getAttribute": true,
	"removeAttribute": true, "hasAttribute": true, "attributes": true,
	"className": true, "classList": true, "dataset": true, "id": true,
	"tagName": true, "nodeName": true, "nodeType": true,
	"innerHTML": true, "outerHTML": true, "innerText": true,
	"textContent": true, "insertAdjacentHTML": true,

	// Geometry probes — the heart of HTML-bait detection.
	"offsetParent": true, "offsetHeight": true, "offsetWidth": true,
	"offsetLeft": true, "offsetTop": true, "clientHeight": true,
	"clientWidth": true, "clientLeft": true, "clientTop": true,
	"scrollHeight": true, "scrollWidth": true, "getBoundingClientRect": true,
	"getComputedStyle": true, "currentStyle": true, "style": true,
	"display": true, "visibility": true, "cssText": true, "zIndex": true,
	"position": true, "height": true, "width": true, "opacity": true,

	// Script/network baits.
	"src": true, "async": true, "defer": true, "onload": true,
	"onerror": true, "onabort": true, "XMLHttpRequest": true, "open": true,
	"send": true, "status": true, "statusText": true, "responseText": true,
	"responseXML": true, "setRequestHeader": true, "withCredentials": true,
	"fetch": true, "then": true, "Image": true, "complete": true,

	// State, timing, events.
	"cookie": true, "localStorage": true, "sessionStorage": true,
	"getItem": true, "setItem": true, "removeItem": true,
	"setTimeout": true, "setInterval": true, "clearTimeout": true,
	"clearInterval": true, "addEventListener": true,
	"removeEventListener": true, "attachEvent": true, "detachEvent": true,
	"onclick": true, "onmouseover": true, "userAgent": true, "platform": true,
	"vendor": true, "language": true, "plugins": true,
	"requestAnimationFrame": true, "alert": true, "confirm": true,
	"prompt": true, "console": true, "log": true, "warn": true,
	"error": true, "top": true, "self": true, "parent": true,
	"opener": true, "frames": true, "contentWindow": true,
	"contentDocument": true, "postMessage": true, "onmessage": true,

	// Language built-ins commonly fingerprinted.
	"Object": true, "Array": true, "String": true, "Number": true,
	"Boolean": true, "Function": true, "Date": true, "RegExp": true,
	"Math": true, "JSON": true, "Error": true, "Promise": true,
	"prototype": true, "constructor": true, "hasOwnProperty": true,
	"call": true, "apply": true, "bind": true, "arguments": true,
	"length": true, "indexOf": true, "lastIndexOf": true, "charAt": true,
	"charCodeAt": true, "fromCharCode": true, "substring": true,
	"substr": true, "slice": true, "splice": true, "split": true,
	"join": true, "replace": true, "match": true, "test": true,
	"exec": true, "search": true, "toLowerCase": true, "toUpperCase": true,
	"trim": true, "concat": true, "push": true, "pop": true,
	"shift": true, "unshift": true, "forEach": true, "map": true,
	"filter": true, "toString": true, "valueOf": true, "parse": true,
	"stringify": true, "parseInt": true, "parseFloat": true, "isNaN": true,
	"random": true, "floor": true, "ceil": true, "round": true, "abs": true,
	"getTime": true, "setTime": true, "toUTCString": true,
	"toGMTString": true, "getFullYear": true, "now": true,
	"encodeURIComponent": true, "decodeURIComponent": true,
	"encodeURI": true, "decodeURI": true, "escape": true, "unescape": true,
	"eval": true, "keys": true, "defineProperty": true,
	"getOwnPropertyNames": true, "freeze": true, "create": true,
}

// IsWebAPIKeyword reports whether name is in the Web API keyword table.
func IsWebAPIKeyword(name string) bool { return webAPIKeywords[name] }
